"""The regex lexer returns exactly the oracle's tokens, or its error.

:func:`repro.lang.lexer.tokenize` runs one compiled regex over each
line; :mod:`tests.oracles.lexer` is the character-by-character loop it
replaced.  On every input the two must return the same tokens (kind,
text, line and column, the final ``EOF`` included) or raise a
:class:`~repro.core.errors.ParseError` with the same message, line and
column.

The inputs are every shipped module, the parser fuzz's byte mutants of
them, Hypothesis text over an alphabet of every symbol, blank, quote,
comment sign, line-break look-alike and non-ASCII letter and digit, text
over all of Unicode, every character of the Basic Multilingual Plane,
and the cases pinned by name below.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ParseError
from repro.lang.lexer import SYMBOLS, Token, tokenize

from tests.lang.test_fuzz_parse import byte_mutants
from tests.oracles.lexer import tokenize as oracle_tokenize

ROOT = Path(__file__).resolve().parents[2]

#: Every module source under ``examples/`` and ``tests/``, crash
#: fixtures included.
FILES = sorted([*ROOT.glob("examples/**/*.sus"), *ROOT.glob("tests/**/*.sus"),
                *ROOT.glob("examples/**/*.toml")])

#: Every symbol's characters, the blanks the lexer skips, characters
#: that look like blanks or line breaks but are errors, the quote and
#: comment signs, ASCII letters and digits, non-ASCII letters (``é``,
#: ``λ``), a non-ASCII decimal digit (``٣``) and two digits that are not
#: decimal (``²``, ``½``).
ALPHABET = sorted(set("".join(SYMBOLS)) | set(
    "-.\"#\n\r\t\x0b\x0c\xa0\u2028 azAZ_09éλ٣²½"))


def outcome(lex, source: str):
    """The tokens as plain tuples, or the error's message and position."""
    try:
        return [(token.kind, token.text, token.line, token.column)
                for token in lex(source)]
    except ParseError as error:
        return ("error", error.message, error.line, error.column)


def assert_same(source: str):
    expected = outcome(oracle_tokenize, source)
    assert outcome(tokenize, source) == expected
    return expected


@pytest.mark.parametrize("path", FILES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_shipped_files(path):
    tokens = assert_same(path.read_text(encoding="utf-8"))
    if path.suffix == ".sus" and not path.name.startswith("crash_"):
        assert tokens[-1][0] == "EOF"


@settings(max_examples=300, deadline=None)
@given(source=byte_mutants())
def test_byte_mutants(source):
    assert_same(source)


@settings(max_examples=1000, deadline=None)
@given(source=st.text(alphabet=ALPHABET, max_size=40))
def test_alphabet_text(source):
    assert_same(source)


@settings(max_examples=300, deadline=None)
@given(source=st.text(max_size=20))
def test_unicode_text(source):
    assert_same(source)


def test_every_bmp_character():
    """Each character alone, and after a letter: it starts a token, is
    skipped, continues an identifier or is an error, as in the oracle."""
    for code in range(0x10000):
        char = chr(code)
        assert_same(char)
        assert_same("a" + char)


# -- pinned cases -------------------------------------------------------------

def test_comment_at_end_of_file_without_newline():
    # The oracle does not advance the column over a comment.
    assert assert_same("a # c") == [("IDENT", "a", 1, 1), ("EOF", "", 1, 3)]
    assert assert_same("a #") == [("IDENT", "a", 1, 1), ("EOF", "", 1, 3)]
    assert assert_same("# only") == [("EOF", "", 1, 1)]


def test_comment_then_newline():
    assert assert_same("a # c\n") == [
        ("IDENT", "a", 1, 1), ("EOF", "", 2, 1)]


def test_trailing_blanks_are_not_unexpected_characters():
    assert assert_same("a  \t\r\nb \t") == [
        ("IDENT", "a", 1, 1), ("IDENT", "b", 2, 1), ("EOF", "", 2, 4)]
    assert assert_same("   ") == [("EOF", "", 1, 4)]


def test_comment_sign_and_quote_inside_strings():
    assert assert_same('"a # b" x') == [
        ("STRING", "a # b", 1, 1), ("IDENT", "x", 1, 9), ("EOF", "", 1, 10)]
    assert assert_same('"#"') == [("STRING", "#", 1, 1), ("EOF", "", 1, 4)]
    # A second quote ends the string; the third opens another one.
    assert assert_same('"a"b"') == (
        "error", "unterminated string literal", 1, 5)


def test_string_unterminated_at_end_of_line():
    assert assert_same('x "ab\n"') == (
        "error", "unterminated string literal", 1, 3)


def test_string_unterminated_at_end_of_file():
    assert assert_same('x\n  "ab') == (
        "error", "unterminated string literal", 2, 3)


def test_empty_string():
    assert assert_same('""') == [("STRING", "", 1, 1), ("EOF", "", 1, 3)]


@pytest.mark.parametrize("source, expected", [
    ("1.2.3", ("error", "malformed number '1.2.3'", 1, 1)),
    ("-", ("error", "unexpected character '-'", 1, 1)),
    ("-5", [("INT", "-5", 1, 1), ("EOF", "", 1, 3)]),
    ("->", [("->", "->", 1, 1), ("EOF", "", 1, 3)]),
    ("+++", [("++", "++", 1, 1), ("+", "+", 1, 3), ("EOF", "", 1, 4)]),
    ("5.", [("FLOAT", "5.", 1, 1), ("EOF", "", 1, 3)]),
    ("-.5", ("error", "unexpected character '-'", 1, 1)),
], ids=["1.2.3", "minus-alone", "-5", "arrow", "+++", "5.", "-.5"])
def test_numbers_and_symbols(source, expected):
    assert assert_same(source) == expected


def test_superscript_digit_cannot_start_an_identifier():
    # ``\w`` matches '²' but ``str.isalpha`` does not.
    assert assert_same("²x") == (
        "error", "unexpected character '²'", 1, 1)
    assert assert_same("x²") == [("IDENT", "x²", 1, 1), ("EOF", "", 1, 3)]
    assert assert_same("½") == ("error", "unexpected character '½'", 1, 1)


def test_non_ascii_letters_and_decimal_digits():
    assert assert_same("é λx ٣") == [
        ("IDENT", "é", 1, 1), ("IDENT", "λx", 1, 3), ("INT", "٣", 1, 6),
        ("EOF", "", 1, 7)]


@pytest.mark.parametrize("char", [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\xa0", "\u2028",
    "\u2029"], ids=lambda char: f"U+{ord(char):04X}")
def test_only_newline_breaks_lines(char):
    # ``str.splitlines`` would split at these; the oracle rejects them.
    assert assert_same(f"a\n b{char}c") == (
        "error", f"unexpected character {char!r}", 2, 3)


def test_tokens_compare_hash_and_print_by_their_fields():
    (token, eof) = tokenize('"hi"')
    assert token == Token("STRING", "hi", 1, 1)
    # The frozen dataclass hashed the tuple of its fields.
    assert hash(token) == hash(("STRING", "hi", 1, 1))
    assert repr(token) == ("Token(kind='STRING', text='hi', line=1, "
                           "column=1)")
    assert str(token) == "STRING('hi')@1:1"
    assert (token.span.line, token.span.column,
            token.span.end_line, token.span.end_column) == (1, 1, 1, 3)
    with pytest.raises(AttributeError):
        token.text = "other"  # type: ignore[misc]
    assert str(eof) == "EOF('')@1:5"

