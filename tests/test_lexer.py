"""Tokenizer: every token and every syntax error keeps its position."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from tdw.errors import ParseError
from tdw.lexer import TokenStream, tokenize

# The tokenizer before tokens became tuples and columns were counted from
# the start of each line: it advanced a column counter over every match.
_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+(\.\d+)?)
  | (?P<ident>[^\W\d]\w*)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<punct>::|:=|<=|>=|!=|[{}()<>,;:.=\-≠≤≥∋])
    """,
    re.VERBOSE,
)
_ALIASES = {"≠": "!=", "≤": "<=", "≥": ">="}


def reference_tokenize(text):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if not m:
            raise ParseError(line, col, f"a token (found {text[pos]!r})")
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            if kind == "string":
                value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            elif kind == "punct":
                value = _ALIASES.get(value, value)
            tokens.append((kind, value, line, col))
            col += m.end() - m.start()
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def outcome(tokenizer, text):
    try:
        return [tuple(tok) for tok in tokenizer(text)]
    except ParseError as exc:
        return ("error", exc.line, exc.col, exc.expected)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_fixture_texts_tokenize_as_before(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    assert [(t.kind, t.value, t.line, t.col) for t in tokenize(text)] == reference_tokenize(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "interface A {\n  attribute String ;\n}",
        'mapping X = select(p: P, p.nom = "a\\"b\\\\c");\n',
        "a ≤ b ≠ c ≥ d ∋ e // comment ≤\r\n\tx := 1.5 :: y",
        'interface A { attribute String "unterminated\n}',
        "interface A {\n\t  attribute @ x;\n}",
        "x # y",
        "x\n// trailing comment",
        "1.2.3 4. .5",
    ],
    ids=[
        "empty", "blank-lines", "missing-name", "escaped-string", "unicode-and-crlf",
        "unterminated-string", "stray-at", "stray-hash", "comment-last", "numbers",
    ],
)
def test_texts_and_errors_keep_their_positions(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=' \t\r\n/"\\:<=>!-.,;(){}≠≤≥∋#@aé_Z09', max_size=40))
def test_random_texts_tokenize_as_before(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


@pytest.mark.parametrize("text", ["", "a", "a b"], ids=["empty", "one-token", "two-tokens"])
def test_stream_rests_at_eof_and_looks_ahead_past_it(text):
    ts = TokenStream(tokenize(text))
    while not ts.at("eof"):
        ts.next()
    end = ts.peek()
    for _ in range(2):  # next never moves past eof
        assert [ts.peek(0), ts.peek(1), ts.peek(2), ts.next()] == [end] * 4
    assert (end.kind, end.col) == ("eof", len(text) + 1)
