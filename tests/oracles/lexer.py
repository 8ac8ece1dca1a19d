"""The character-by-character lexer: the differential oracle of
:func:`repro.lang.lexer.tokenize`, which runs one compiled regex over
each line instead.

:func:`_tokens` is the loop ``tokenize`` used before, kept verbatim.
:mod:`tests.property.test_prop_lexer` requires ``tokenize`` to return
exactly its tokens, or to raise the same error at the same position.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import ParseError
from repro.lang.lexer import KEYWORDS, SYMBOLS, Token


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
