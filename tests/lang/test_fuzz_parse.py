"""Parser fuzz: mutated shipped modules parse or fail with a typed error.

Byte- and token-level Hypothesis mutations of every shipped ``.sus``
module go to :func:`~repro.lang.module.parse_module`.  Each must yield a
:class:`~repro.lang.module.Module` or raise a
:class:`~repro.core.errors.ReproError`: a
:class:`~repro.core.errors.ParseError` carrying a line and column, a
:class:`~repro.core.errors.WellFormednessError`, or the typed error of a
later check (a λ-program's type and effect, a policy's instantiation).
Any other exception fails.  Each crash the fuzz found is pinned as a
fixture under ``tests/lang/fixtures/`` and replayed by
:func:`test_pinned_crash`.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ParseError, ReproError
from repro.lang.lexer import tokenize
from repro.lang.module import Module, parse_module

ROOT = Path(__file__).resolve().parents[2]

#: The shipped modules the mutations start from.
SOURCES = [path.read_text(encoding="utf-8") for path in sorted(
    [*ROOT.glob("examples/*.sus"), *ROOT.glob("tests/analysis/fixtures/*.sus"),
     *ROOT.glob("tests/lint/fixtures/*.sus")])]

#: Inputs that once crashed the parser with an untyped exception.
PINNED = sorted((Path(__file__).parent / "fixtures").glob("crash_*.sus"))


def assert_parses_or_reports(source: str) -> None:
    try:
        module = parse_module(source, path="fuzz.sus")
    except ParseError as error:
        assert isinstance(error.line, int) and error.line >= 1
        assert isinstance(error.column, int) and error.column >= 1
    except ReproError:
        pass
    else:
        assert isinstance(module, Module)


@st.composite
def byte_mutants(draw) -> str:
    """A shipped module with a few bytes deleted, inserted, replaced or
    duplicated, or a few characters inserted, decoded as UTF-8
    (undecodable bytes become U+FFFD)."""
    data = bytearray(draw(st.sampled_from(SOURCES)).encode("utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 24)))
        edit = draw(st.sampled_from(("delete", "insert", "replace",
                                     "duplicate", "text")))
        if edit == "delete":
            del data[start:end]
        elif edit == "insert":
            data[start:start] = draw(st.binary(min_size=1, max_size=4))
        elif edit == "text":
            data[start:start] = draw(st.text(min_size=1, max_size=3)
                                     ).encode("utf-8")
        elif edit == "replace":
            data[start:end] = draw(st.binary(max_size=end - start + 1))
        else:
            data[start:start] = data[start:end]
    return data.decode("utf-8", errors="replace")


def _spelling(token) -> str:
    return f'"{token.text}"' if token.kind == "STRING" else token.text


@st.composite
def token_mutants(draw) -> str:
    """A shipped module's tokens with a few deleted, duplicated, swapped
    or replaced by another token of the module, joined by spaces."""
    words = [_spelling(token)
             for token in tokenize(draw(st.sampled_from(SOURCES)))[:-1]]
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(words) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "swap",
                                     "replace")))
        if edit == "delete":
            del words[index]
        elif edit == "duplicate":
            words.insert(index, words[index])
        else:
            other = draw(st.integers(0, len(words) - 1))
            if edit == "swap":
                words[index], words[other] = words[other], words[index]
            else:
                words[index] = words[other]
        if not words:
            break
    return " ".join(words)


@settings(max_examples=400, deadline=None)
@given(source=byte_mutants())
def test_byte_mutants(source):
    assert_parses_or_reports(source)


@settings(max_examples=400, deadline=None)
@given(source=token_mutants())
def test_token_mutants(source):
    assert_parses_or_reports(source)


@pytest.mark.parametrize("path", PINNED, ids=lambda path: path.name)
def test_pinned_crash(path):
    assert_parses_or_reports(path.read_text(encoding="utf-8"))
