"""A hand-rolled lexer for the FreezeML surface syntax.

Token kinds::

    IDENT   lowercase identifiers (may contain ', _, digits): x, auto', f1
    UPPER   capitalised identifiers (type constructors): Int, List, ST
    INT     integer literals
    STRING  double-quoted string literals
    symbols: -> . , :: : ( ) [ ] ~ $ @ = * + ++ |
    keywords: fun let in forall rec true false

``~`` renders the paper's freeze brackets; ``$`` and ``@`` are the
generalisation/instantiation operators of Section 2.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError

KEYWORDS = {"fun", "let", "in", "forall", "true", "false", "rec"}

_TOKEN_RE = re.compile(
    r"""
      (?P<SKIP>\s+|\#[^\n]*)
    | (?P<SYM>->|::|\+\+|[().\[\],~$@:=*+×])
    | (?P<INT>\d+)
    | (?P<IDENT>[a-z_][A-Za-z0-9_']*)
    | (?P<UPPER>[A-Z][A-Za-z0-9_']*)
    | (?P<STRING>"(?:[^"\\]|\\.)*")
    | (?P<ERROR>.)
    """,
    re.VERBOSE,
)

#: Token text -> kind for every keyword and symbol; any other text takes
#: the kind of the regex group that matched it.
_KINDS = {kw: kw.upper() for kw in KEYWORDS} | {
    "->": "ARROW",
    "::": "DCOLON",
    "++": "DPLUS",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ".": "DOT",
    ",": "COMMA",
    "~": "TILDE",
    "$": "DOLLAR",
    "@": "AT",
    ":": "COLON",
    "=": "EQUALS",
    "*": "STAR",
    "×": "STAR",
    "+": "PLUS",
}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int

    @property
    def end_line(self) -> int:
        """Line the token ends on (tokens never span lines)."""
        return self.line

    @property
    def end_column(self) -> int:
        """Column one past the last character of the token."""
        return self.column + len(self.text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}@{self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Tokenise ``source``; raises :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KINDS
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "SKIP":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
            continue
        column = match.start() - line_start + 1
        if kind == "ERROR":
            raise ParseError(
                f"unexpected character {text!r}", line, column, line, column + 1
            )
        append(Token(kinds.get(text, kind), text, line, column))  # type: ignore[arg-type]
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens
