"""Instance-file reading shared by every model.

``read_instance`` is the one loader: each model's ``load_instance`` calls
it, and the CLI and the benchmark call those.  It reads the file once and
decides the format from the content under ``auto`` (text that starts with
``{`` is JSON, anything else goes to the model's native parser), so the
file's suffix never matters.  Every malformed or unreadable file ends in
``ParseError``; a format the model cannot read ends in ``UnknownFormat``.
"""

from __future__ import annotations

import json
import re
from typing import Callable, List, Optional, Tuple

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


def read_instance(
    path: str,
    fmt: str,
    from_json: Callable,
    native: Optional[Tuple[str, Callable]] = None,
):
    """The instance in the file at ``path``.

    ``fmt`` is ``auto``, ``json`` or the name in ``native``, a pair of the
    model's native format and its parser ``(text, path) -> instance``;
    ``from_json`` builds the instance from decoded JSON.
    """
    native_fmt, parse_native = native or (None, None)
    if fmt not in ("auto", "json", native_fmt):
        readable = ", ".join(f for f in ("auto", "json", native_fmt) if f)
        raise UnknownFormat(f"{path}: format {fmt} is not one of {readable}")
    try:
        with open(path) as fh:
            text = fh.read()
        if fmt == "json" or (fmt == "auto" and text.lstrip().startswith("{")):
            return from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}", path, exc.lineno) from exc
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(exc), path) from exc
    if parse_native is None:
        raise UnknownFormat(f"{path}: not JSON, the only format of this problem")
    return parse_native(text, path)


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
