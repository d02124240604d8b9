"""Shared tokenizer for the source schema (.odl) and warehouse (.edw) texts.

Identifiers admit any Unicode letter (fixtures use accented French names)
and are matched byte-for-byte, never normalized. Comments run from //
to end of line. All keywords are contextual: the parsers match them by
value, so property names are never reserved.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+(\.\d+)?)
  | (?P<ident>[^\W\d]\w*)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<punct>::|:=|<=|>=|!=|[{}()<>,;:.=\-≠≤≥∋])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# Unicode comparison operators normalize to their ASCII spelling.
_PUNCT_ALIASES = {"≠": "!=", "≤": "<=", "≥": ">="}


class Token(NamedTuple):
    kind: str  # ident | number | string | punct | eof
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    # Every character starts a match (bad takes any the others do not),
    # so the matches tile the text; a token's column counts from the
    # start of its line.
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        value = m.group()
        if kind == "string":
            value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        elif kind == "punct":
            value = _PUNCT_ALIASES.get(value, value)
        elif kind == "bad":
            raise ParseError(line, col, f"a token (found {value!r})")
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with expect/accept helpers."""

    def __init__(self, tokens: list[Token]):
        # tokenize ends the list with eof and the cursor never moves past
        # it; two more copies let peek(ahead) for ahead <= 2, the most the
        # parsers look ahead, index the list without a bound check
        eof = tokens[-1]
        self._tokens = [*tokens, eof, eof]
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[self._pos + ahead]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, value):
            want = value if value is not None else kind
            found = tok.value or tok.kind
            raise ParseError(tok.line, tok.col, f"{want!r} (found {found!r})")
        return self.next()

    def idents(self) -> list[str]:
        """IDENT {, IDENT}: one or more comma-separated names."""
        names = [self.expect("ident").value]
        while self.accept("punct", ","):
            names.append(self.expect("ident").value)
        return names

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(tok.line, tok.col, expected)
