"""Statement-level tokenizer for DSS circuit description files.

Turns raw text into a list of :class:`DssStatement`. Handles ``!`` and ``//``
comments, ``~`` line continuations, quoted strings, and bracketed or
parenthesized composite values that contain whitespace.

One grouping grammar serves comments, statement fields and array elements.
:data:`PIECES` cuts text into quoted runs (``"..."`` or ``'...'``, atomic),
a lone quote that never closes, comment starts (``!`` and ``//``), single
brackets (``[ ] ( )``) and separator runs (whitespace and commas). Whatever
lies between two pieces is literal text.

- A comment runs from the first comment piece to the end of the line; a lone
  quote before it is an unterminated quote.
- :func:`split_groups` splits on separator runs where the bracket depth is
  zero. One depth counts ``[`` and ``(`` alike, so ``[1 2)`` is one field.
- Statement fields use :data:`PIECES`. Array elements use
  :data:`ELEMENT_PIECES`, which has parentheses only: quotes and square
  brackets inside an array are literal, so ``["a b" c]`` has three elements.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

PIECES = re.compile(r'''"[^"]*"|'[^']*'|["'!]|//|[][()]|(?P<sep>[\s,]+)''')
ELEMENT_PIECES = re.compile(r"[()]|(?P<sep>[\s,]+)")


class DssParseError(ValueError):
    """Raised for malformed DSS input text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class DssStatement:
    """One logical statement after comment stripping and continuation joining.

    ``properties`` preserves source order; keys are lowercased identifiers or
    integer positional indices (0-based, resolved against the per-class
    property order later). ``raw`` keeps the joined source text.
    """

    verb: str
    object_class: str = ""
    object_name: str = ""
    properties: list[tuple[str | int, str]] = field(default_factory=list)
    raw: str = ""
    line: int = 0


def _strip_comment(line: str, lineno: int) -> str:
    """Remove ! and // comments, respecting quoted strings."""
    for m in PIECES.finditer(line):
        piece = m[0]
        if piece in ("!", "//"):
            return line[: m.start()]
        if piece in ('"', "'"):
            raise DssParseError(f"unterminated quote: {line.strip()!r}", lineno)
    return line


def split_groups(text: str, pieces: re.Pattern) -> list[str] | None:
    """Split ``text`` on the separator runs of ``pieces`` at bracket depth 0.

    Returns the non-empty fields, or None when a closing bracket has no
    opener or an opener is never closed.
    """
    fields: list[str] = []
    depth = start = 0
    for m in pieces.finditer(text):
        if m.lastgroup == "sep":
            if depth == 0:
                if m.start() > start:
                    fields.append(text[start : m.start()])
                start = m.end()
        elif m[0] in ("(", "["):
            depth += 1
        elif m[0] in (")", "]"):
            depth -= 1
            if depth < 0:
                return None
    if depth != 0:
        return None
    if start < len(text):
        fields.append(text[start:])
    return fields


def _split_fields(text: str, lineno: int) -> list[str]:
    """Split a statement body into fields.

    Whitespace and top-level commas separate fields. Quotes, square brackets
    and parentheses group characters (including spaces) into one field, so
    ``rmatrix=[1 | 2 3]`` and ``kvs=(12.47, 4.16)`` stay intact.
    """
    fields = split_groups(text, PIECES)
    if fields is None:
        raise DssParseError(f"unbalanced bracket in {text.strip()!r}", lineno)
    return _merge_assignment_fields(fields)


def _merge_assignment_fields(fields: list[str]) -> list[str]:
    # tolerate whitespace around '=': rejoin "key", "=", "value" and
    # "key=", "value" and "key", "=value" into single key=value fields; the
    # verb and Class.Name target of new/edit never take a value
    floor = 2 if fields and fields[0].lower() in ("new", "edit") else 0
    merged = fields[:floor]
    i = len(merged)
    while i < len(fields):
        f = fields[i]
        if f == "=" and len(merged) > floor and i + 1 < len(fields):
            merged[-1] = merged[-1] + "=" + fields[i + 1]
            i += 2
            continue
        if f.endswith("=") and len(f) > 1 and i + 1 < len(fields):
            merged.append(f + fields[i + 1])
            i += 2
            continue
        if f.startswith("=") and len(f) > 1 and len(merged) > floor and "=" not in merged[-1]:
            merged[-1] = merged[-1] + f
            i += 1
            continue
        merged.append(f)
        i += 1
    return merged


def _unquote(text: str) -> str:
    t = text.strip()
    for q in ('"', "'"):
        if len(t) >= 2 and t.startswith(q) and t.endswith(q):
            return t[1:-1]
    return t


def _parse_statement(body: str, lineno: int) -> DssStatement:
    fields = _split_fields(body, lineno)
    if not fields:
        raise DssParseError("empty statement", lineno)
    head = fields[0].lower()

    if head in ("redirect", "compile"):
        if len(fields) != 2:
            raise DssParseError(f"{head} expects exactly one file path", lineno)
        return DssStatement(
            verb="redirect",
            properties=[("file", _unquote(fields[1]))],
            raw=body.strip(),
            line=lineno,
        )

    if head == "set":
        stmt = DssStatement(verb="set", raw=body.strip(), line=lineno)
        for f in fields[1:]:
            if "=" not in f:
                raise DssParseError(f"set option must be key=value, got {f!r}", lineno)
            k, v = f.split("=", 1)
            stmt.properties.append((k.strip().lower(), _unquote(v)))
        return stmt

    if head in ("new", "edit"):
        if len(fields) < 2 or "=" in fields[1]:
            raise DssParseError(f"{head} requires a Class.Name target", lineno)
        target = _unquote(fields[1])
        if "." not in target:
            raise DssParseError(f"object reference must be Class.Name, got {target!r}", lineno)
        cls, name = target.split(".", 1)
        stmt = DssStatement(
            verb=head,
            object_class=cls.lower(),
            object_name=name,
            raw=body.strip(),
            line=lineno,
        )
        positional = 0
        for f in fields[2:]:
            if "=" in f:
                k, v = f.split("=", 1)
                key = k.strip().lower()
                if not key:
                    raise DssParseError(f"empty property name in {f!r}", lineno)
                stmt.properties.append((key, _unquote(v)))
            else:
                stmt.properties.append((positional, _unquote(f)))
                positional += 1
        return stmt

    return DssStatement(verb="other", raw=body.strip(), line=lineno)


def tokenize(text: str) -> list[DssStatement]:
    """Tokenize DSS source text into statements.

    A leading ``~`` continues the previous statement with more properties.
    Raises :class:`DssParseError` for a dangling ``~`` with no statement to
    continue, or for unterminated quotes.
    """
    # First pass: strip comments, join continuations into logical statements.
    logical: list[tuple[str, int]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw_line, lineno)
        body = stripped.strip()
        if not body:
            continue
        if body.startswith("~"):
            if not logical:
                raise DssParseError("continuation '~' with no preceding statement", lineno)
            prev_body, prev_line = logical[-1]
            logical[-1] = (prev_body + " " + body[1:].strip(), prev_line)
        else:
            logical.append((body, lineno))

    return [_parse_statement(body, lineno) for body, lineno in logical]
