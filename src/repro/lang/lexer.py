"""Lexer for the history-expression surface syntax.

Token kinds:

``IDENT``    identifiers (``[A-Za-z_][A-Za-z0-9_]*``), with the keywords
             ``eps``, ``mu``, ``open``, ``with``, ``frame`` split out;
``INT`` / ``FLOAT`` / ``STRING`` literals (strings in double quotes);
punctuation ``@ ! ? . ; , ( ) { } = : | ->``, the external-choice
operator ``+`` and the internal-choice operator ``++`` (``=`` appears in
module declarations, :mod:`repro.lang.module`; ``: | ->`` in λ-programs,
:mod:`repro.lam.parser`).

``#`` starts a comment running to the end of the line.  Every token
carries its 1-based line/column for error reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import ParseError

KEYWORDS = frozenset({"eps", "mu", "open", "with", "frame"})

#: Multi-character symbols first so maximal munch applies.
SYMBOLS = ("++", "->", "@", "!", "?", ".", ";", ",", "(", ")", "{",
           "}", "+", "=", ":", "|")


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open source region ``line:column – end_line:end_column``.

    Lines and columns are 1-based, like the positions carried by
    :class:`Token` and :class:`~repro.core.errors.ParseError`.  Spans are
    attached to module declarations (:mod:`repro.lang.module`) and lint
    diagnostics (:mod:`repro.lint`) so every finding can be reported as
    ``file:line:col``.
    """

    line: int
    column: int
    end_line: int
    end_column: int

    @staticmethod
    def of(token: "Token") -> "Span":
        """The span covering exactly *token*."""
        return Span(token.line, token.column,
                    token.line, token.column + max(len(token.text), 1))

    def merge(self, other: "Span") -> "Span":
        """The smallest span covering both operands."""
        start = min((self.line, self.column), (other.line, other.column))
        end = max((self.end_line, self.end_column),
                  (other.end_line, other.end_column))
        return Span(start[0], start[1], end[0], end[1])

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source position."""

    kind: str
    text: str
    line: int
    column: int

    @property
    def span(self) -> Span:
        """The source span of this token."""
        return Span.of(self)

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, appending a final ``EOF`` token."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    line = 1
    column = 1
    index = 0
    length = len(source)

    def error(message: str) -> ParseError:
        return ParseError(message, line, column)

    while index < length:
        char = source[index]
        if char == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if char == "#":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if char == '"':
            start_line, start_column = line, column
            end = index + 1
            while end < length and source[end] != '"':
                if source[end] == "\n":
                    raise ParseError("unterminated string literal",
                                     start_line, start_column)
                end += 1
            if end >= length:
                raise ParseError("unterminated string literal",
                                 start_line, start_column)
            text = source[index + 1:end]
            yield Token("STRING", text, start_line, start_column)
            column += end + 1 - index
            index = end + 1
            continue
        # Decimal digits only: int() rejects other digits, such as "²".
        if char.isdecimal() or (char == "-" and index + 1 < length
                                and source[index + 1].isdecimal()):
            start_line, start_column = line, column
            end = index + 1
            while end < length and (source[end].isdecimal()
                                    or source[end] == "."):
                end += 1
            text = source[index:end]
            kind = "FLOAT" if "." in text else "INT"
            if text.count(".") > 1:
                raise ParseError(f"malformed number {text!r}",
                                 start_line, start_column)
            yield Token(kind, text, start_line, start_column)
            column += end - index
            index = end
            continue
        if char.isalpha() or char == "_":
            start_line, start_column = line, column
            end = index + 1
            while end < length and (source[end].isalnum()
                                    or source[end] == "_"):
                end += 1
            text = source[index:end]
            kind = text.upper() if text in KEYWORDS else "IDENT"
            yield Token(kind, text, start_line, start_column)
            column += end - index
            index = end
            continue
        for symbol in SYMBOLS:
            if source.startswith(symbol, index):
                yield Token(symbol, symbol, line, column)
                index += len(symbol)
                column += len(symbol)
                break
        else:
            raise error(f"unexpected character {char!r}")
    yield Token("EOF", "", line, column)
