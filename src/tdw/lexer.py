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

# A match is a token, or a comment, with the whitespace before it; no
# token spans a line, so tokenize matches each line apart.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*(?:
    (?P<ident>[^\W\d]\w*)
  | (?P<punct>::|:=|<=|>=|!=|[{}()<>,;:.=\-≠≤≥∋])
  | (?P<comment>//[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<bad>[^ \t\r])
  )
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


_new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__


def tokenize(text: str) -> list[Token]:
    # Every character but whitespace that ends a line is in a match (bad
    # takes any the others do not), so the matches tile each line; a
    # token's column counts from the start of its line.
    tokens: list[Token] = []
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(row):
            kind = m.lastgroup
            if kind == "comment":
                continue
            value = m.group(kind)
            col = m.start(kind) + 1
            if kind == "string":
                value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            elif kind == "punct":
                value = _PUNCT_ALIASES.get(value, value)
            elif kind == "bad":
                raise ParseError(line, col, f"a token (found {value!r})")
            tokens.append(_new(Token, (kind, value, line, col)))
    tokens.append(_new(Token, ("eof", "", line, len(row) + 1)))
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

    # accept and expect, which the parsers call for most tokens, spell out
    # at and next rather than call them
    def accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self._tokens[self._pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            return None
        if kind != "eof":
            self._pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            found = tok.value or tok.kind
            raise ParseError(tok.line, tok.col, f"{want!r} (found {found!r})")
        if kind != "eof":
            self._pos += 1
        return tok

    def idents(self) -> list[str]:
        """IDENT {, IDENT}: one or more comma-separated names."""
        names = [self.expect("ident").value]
        while self.accept("punct", ","):
            names.append(self.expect("ident").value)
        return names

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(tok.line, tok.col, expected)
