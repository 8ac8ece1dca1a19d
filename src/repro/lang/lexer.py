"""Lexer for the history-expression surface syntax.

Token kinds:

``IDENT``    identifiers: a ``str.isalpha`` character or ``_``, then any
             ``str.isalnum`` characters or ``_`` (so ``é`` and ``λ``
             start identifiers, and ``²`` continues one but cannot start
             one), with the keywords ``eps``, ``mu``, ``open``, ``with``,
             ``frame`` split out;
``INT`` / ``FLOAT`` decimal numbers (``str.isdecimal`` digits, an
             optional leading ``-`` and dots; a number with a dot is a
             ``FLOAT``, one with two dots is an error);
``STRING``   double-quoted text on one line, without escapes;
punctuation ``@ ! ? . ; , ( ) { } = : | ->``, the external-choice
operator ``+`` and the internal-choice operator ``++`` (``=`` appears in
module declarations, :mod:`repro.lang.module`; ``: | ->`` in λ-programs,
:mod:`repro.lam.parser`).

``#`` starts a comment running to the end of the line.  Only ``\\n``
ends a line; space, tab and ``\\r`` are blanks, and any other character
is an error.  Every token carries its 1-based line/column for error
reporting.

One compiled regex (:data:`_TOKEN`) is run by ``finditer`` over each
line; its groups say which kind of token matched.  Its last alternative
takes any other non-blank character, so no character is skipped and
each error is raised at the character the error is about.  The
character-by-character loop this replaced is the differential oracle in
``tests/oracles/lexer.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

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


class Token(NamedTuple):
    """One lexical token with its source position.

    A named tuple, so it is immutable, compares and hashes by its four
    fields, and costs one tuple to build: a module has thousands of
    tokens, and a frozen dataclass cost four times as much per token.
    """

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


#: The kind of each keyword and symbol; any other identifier is IDENT.
_KINDS = {**{word: word.upper() for word in KEYWORDS},
          **{symbol: symbol for symbol in SYMBOLS}}

#: One token, after any blanks.  Exactly one group takes part in a
#: match, and its number says what was found.
_TOKEN = re.compile(r"""
    [ \t\r]*
    (?:
        ([A-Za-z_]\w*|""" + "|".join(map(re.escape, SYMBOLS)) + r""")
                        # 1: an ASCII-initial name, or a symbol
      | (-?\d[\d.]*)    # 2: a number
      | "([^"]*)"       # 3: a string's text
      | ([^\W\d]\w*)    # 4: another name, or a digit such as '²'
      | (\#)            # 5: a comment
      | ([^ \t\r])      # 6: any other character: an error
    )""", re.VERBOSE)

_NAME, _NUMBER, _STRING, _OTHER_NAME, _COMMENT = 1, 2, 3, 4, 5


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, appending a final ``EOF`` token."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    kind_of = _KINDS.get
    line = column = 1
    for line, text in enumerate(source.split("\n"), 1):
        # The EOF token sits past the last line, or at its comment.
        column = len(text) + 1
        for match in _TOKEN.finditer(text):
            group = match.lastindex
            word = match[group]
            start = match.start(group) + 1
            if group == _NAME:
                append(new(Token, (kind_of(word, "IDENT"), word, line,
                                   start)))
            elif group == _NUMBER:
                dots = word.count(".")
                if dots > 1:
                    raise ParseError(f"malformed number {word!r}",
                                     line, start)
                append(new(Token, ("FLOAT" if dots else "INT", word, line,
                                   start)))
            elif group == _STRING:
                append(new(Token, ("STRING", word, line, start - 1)))
            elif group == _OTHER_NAME and word[0].isalpha():
                append(new(Token, ("IDENT", word, line, start)))
            elif group == _COMMENT:
                column = start
                break
            # Group 6, or group 4 starting with a non-letter such as '²'.
            elif word == '"':
                raise ParseError("unterminated string literal", line, start)
            else:
                raise ParseError(f"unexpected character {word[0]!r}",
                                 line, start)
    append(new(Token, ("EOF", "", line, column)))
    return tokens
