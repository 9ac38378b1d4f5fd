"""Shared instance-file parsing helpers."""

from __future__ import annotations

import re
from typing import List, Optional

_INT_RE = re.compile(r"^[+-]?\d+$")


class ParseError(Exception):
    """Malformed instance file."""

    def __init__(self, message: str, path: str = "<input>", line: Optional[int] = None):
        self.path = path
        self.line = line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


class UnknownFormat(Exception):
    """Instance format could not be determined."""


def int_token(token: str, path: str, line: Optional[int] = None) -> int:
    """Parse a strictly integral token (fractional values are rejected)."""
    if not _INT_RE.match(token):
        raise ParseError(f"expected an integer, got {token!r}", path, line)
    return int(token)


def all_int_tokens(line_text: str) -> Optional[List[int]]:
    """The line's tokens as ints, or None if any token is not an integer."""
    toks = line_text.split()
    if not toks or any(not _INT_RE.match(t) for t in toks):
        return None
    return [int(t) for t in toks]
