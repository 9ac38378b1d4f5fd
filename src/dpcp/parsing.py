"""Instance-file reading shared by every model.

``read_instance`` is the one loader: each model's ``load_instance`` calls
it, and the CLI and the benchmark call those.  It reads the file once and
decides the format from the content alone (text that starts with ``{`` or
``[`` is JSON, anything else goes to the model's native parser), so the
file's suffix never matters.  Every malformed or unreadable file ends in
``ParseError``; a format the model cannot read ends in ``UnknownFormat``.
"""

from __future__ import annotations

import json
import re
from typing import Callable, List, Optional

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


def read_instance(path: str, from_json: Callable, parse_native: Optional[Callable] = None):
    """The instance in the file at ``path``.

    ``from_json`` builds the instance from decoded JSON, and
    ``parse_native``, if the model has a native format, parses its text
    as ``(text, path) -> instance``.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        if text.lstrip().startswith(("{", "[")):
            doc = parse_json(text, path, parse_float=_not_integer, parse_constant=_not_integer)
            if not isinstance(doc, dict):
                raise ParseError("instance JSON must be an object", path)
            if "true" in text or "false" in text:  # the walk costs more than the parse
                _reject_booleans(doc)
            return from_json(doc)
    except KeyError as exc:
        raise ParseError(f"missing field {exc}", path) from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ParseError(str(exc), path) from exc
    if parse_native is None:
        raise UnknownFormat(f"{path}: not JSON, the only format of this problem")
    return parse_native(text, path)


def parse_json(text: str, path: str, **options):
    """``json.loads(text, **options)``, with each failure a ``ParseError``:
    the decoder recurses once per nesting level and gives up near
    Python's recursion limit."""
    try:
        return json.loads(text, **options)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}", path, exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply", path) from exc


def _not_integer(token: str):
    # Instance numbers are integers: the solver core has no floating point.
    raise ValueError(f"expected an integer, got {token}")


def _reject_booleans(doc) -> None:
    # ``bool`` subclasses ``int``, so no model's ``from_json`` would notice.
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, bool):
            _not_integer(json.dumps(value))
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)


def require_int(name: str, value, floor: Optional[int] = None) -> int:
    """``value`` if it is an ``int`` of at least ``floor``; otherwise a
    ``ValueError`` that names the field and the value (a JSON string such
    as ``"9"`` is no number)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if floor is not None and value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value!r}")
    return value


def require_list(name: str, value, length: Optional[int] = None):
    """``value`` if it is a list or tuple, of ``length`` items if given;
    otherwise a ``ValueError`` that names the field and the value (a
    number where a list belongs would fail later on ``len`` or ``iter``,
    naming neither)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    if length is not None and len(value) != length:
        raise ValueError(f"{name} must be a list of {length} items, got {value!r}")
    return value


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
