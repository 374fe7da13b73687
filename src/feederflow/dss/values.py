"""Scalar and composite value parsing for the DSS text format.

Handles plain numbers (including Fortran-style ``1.0d3`` exponents), RPN
expressions in parentheses, whitespace or comma separated arrays, triangular
or full symmetric matrices with ``|`` row delimiters, and bus references of
the form ``name.1.2.3``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .lexer import ELEMENT_PIECES, split_groups


class DssValueError(ValueError):
    """A property value that cannot be interpreted."""


_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eEdD][+-]?\d+)?$")

_RPN_BINARY = ("+", "-", "*", "/")
_RPN_UNARY = ("sqrt", "sqr", "inv")


def _finite(value: float, text: str) -> float:
    if not math.isfinite(value):
        raise DssValueError(f"not a finite number: {text!r}")
    return value


def parse_number(text: str) -> float:
    """Parse a finite scalar, accepting an RPN expression when parenthesized."""
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        return parse_rpn(t)
    if not _NUMBER_RE.match(t):
        raise DssValueError(f"not a number: {text!r}")
    return _finite(float(t.lower().replace("d", "e")), text)


def parse_rpn(expr: str) -> float:
    """Evaluate a parenthesized reverse-Polish expression.

    Supported operators: ``+ - * /`` plus the unary ``sqrt``, ``sqr`` and
    ``inv``. Raises :class:`DssValueError` on stack underflow, leftover
    operands, unknown operators, division by zero, or a value that is not
    finite.
    """
    t = expr.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise DssValueError(f"RPN expression must be parenthesized: {expr!r}")
    tokens = t[1:-1].split()
    if not tokens:
        raise DssValueError("empty RPN expression")
    stack: list[float] = []
    for tok in tokens:
        low = tok.lower()
        if tok in _RPN_BINARY:
            if len(stack) < 2:
                raise DssValueError(f"RPN stack underflow at {tok!r} in {expr!r}")
            b = stack.pop()
            a = stack.pop()
            if tok == "+":
                stack.append(a + b)
            elif tok == "-":
                stack.append(a - b)
            elif tok == "*":
                stack.append(a * b)
            else:
                if b == 0.0:
                    raise DssValueError(f"RPN division by zero in {expr!r}")
                stack.append(a / b)
        elif low in _RPN_UNARY:
            if not stack:
                raise DssValueError(f"RPN stack underflow at {tok!r} in {expr!r}")
            a = stack.pop()
            if low == "sqrt":
                if a < 0:
                    raise DssValueError(f"RPN sqrt of negative value in {expr!r}")
                stack.append(math.sqrt(a))
            elif low == "sqr":
                stack.append(a * a)
            else:
                if a == 0.0:
                    raise DssValueError(f"RPN inv of zero in {expr!r}")
                stack.append(1.0 / a)
        elif _NUMBER_RE.match(tok):
            stack.append(_finite(float(low.replace("d", "e")), tok))
        else:
            raise DssValueError(f"unknown RPN token {tok!r} in {expr!r}")
    if len(stack) != 1:
        raise DssValueError(f"RPN expression leaves {len(stack)} items on the stack: {expr!r}")
    return _finite(stack[0], expr)


def _split_respecting_parens(text: str) -> list[str]:
    """Split on whitespace/commas, keeping parenthesized groups intact."""
    elems = split_groups(text, ELEMENT_PIECES)
    if elems is None:
        raise DssValueError(f"unbalanced parentheses in {text!r}")
    return elems


def strip_brackets(text: str) -> str:
    """Remove one layer of [] () or quotes used to group composite values."""
    t = text.strip()
    # One layer of parentheses is always stripped, even from an RPN scalar:
    # as an array, ``(1 2 +)`` has the elements 1, 2 and +. An RPN entry of
    # an array needs its own parentheses, as in ``[(1 2 +) 0]`` or ``((1 2 +))``.
    for opener, closer in (("[", "]"), ("(", ")"), ('"', '"'), ("'", "'")):
        if len(t) >= 2 and t.startswith(opener) and t.endswith(closer):
            return t[1:-1]
    return t


def parse_array_numbers(text: str) -> list[float]:
    elems = _split_respecting_parens(strip_brackets(text))
    if not elems:
        raise DssValueError(f"empty array: {text!r}")
    return [parse_number(e) for e in elems]


def parse_array_strings(text: str) -> list[str]:
    elems = _split_respecting_parens(strip_brackets(text))
    if not elems:
        raise DssValueError(f"empty array: {text!r}")
    return elems


def parse_matrix(text: str, n: int) -> list[list[float]]:
    """Parse a ``|``-delimited matrix into a full symmetric n-by-n array.

    Accepts full (every row ``n`` wide, must already be symmetric),
    lower-triangular (row ``k`` has ``k`` entries) and upper-triangular
    (row ``k`` has ``n - k + 1`` entries) layouts. Triangular input is
    mirrored so the result satisfies ``M == M.T`` exactly.
    """
    if n < 1:
        raise DssValueError(f"matrix size must be positive, got {n}")
    body = strip_brackets(text)
    rows = [[parse_number(tok) for tok in _split_respecting_parens(r)] for r in body.split("|")]
    if len(rows) != n:
        raise DssValueError(f"expected {n} matrix rows, got {len(rows)}: {text!r}")
    lengths = [len(r) for r in rows]
    mat = [[0.0] * n for _ in range(n)]
    if lengths == [n] * n:
        for i in range(n):
            for j in range(n):
                mat[i][j] = rows[i][j]
        for i in range(n):
            for j in range(i):
                if mat[i][j] != mat[j][i]:
                    raise DssValueError(
                        f"full matrix is not symmetric at ({i + 1},{j + 1}): {text!r}"
                    )
    elif lengths == list(range(1, n + 1)):
        for i in range(n):
            for j in range(i + 1):
                mat[i][j] = rows[i][j]
                mat[j][i] = rows[i][j]
    elif lengths == list(range(n, 0, -1)):
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = rows[i][j - i]
                mat[j][i] = rows[i][j - i]
    else:
        raise DssValueError(
            f"matrix rows must be full, lower-triangular or upper-triangular, "
            f"got row lengths {lengths}: {text!r}"
        )
    return mat


@dataclass(frozen=True)
class BusRef:
    """A bus connection reference: bus name plus optional node numbers.

    ``nodes`` keeps the raw trailing integers (0 denotes an explicit ground
    connection); ``phases`` drops the zeros.
    """

    name: str
    nodes: tuple[int, ...] = ()

    @property
    def phases(self) -> tuple[int, ...]:
        return tuple(n for n in self.nodes if n > 0)

    def canonical(self) -> str:
        if not self.nodes:
            return self.name
        return self.name + "." + ".".join(str(n) for n in self.nodes)

    @property
    def key(self) -> str:
        return self.name.lower()


def parse_bus(text: str) -> BusRef:
    t = strip_brackets(text)
    if not t:
        raise DssValueError("empty bus reference")
    parts = t.split(".")
    name = parts[0]
    if not name:
        raise DssValueError(f"bus reference has no name: {text!r}")
    nodes = []
    for p in parts[1:]:
        if not p.isdigit():
            raise DssValueError(f"bus node must be an integer: {text!r}")
        nodes.append(int(p))
    return BusRef(name=name, nodes=tuple(nodes))


def parse_bool(text: str) -> bool:
    t = strip_brackets(text).lower()
    if t in ("yes", "y", "true", "t", "1"):
        return True
    if t in ("no", "n", "false", "f", "0"):
        return False
    raise DssValueError(f"not a boolean: {text!r}")


def parse_int(text: str) -> int:
    v = parse_number(text)
    iv = int(round(v))
    if abs(v - iv) > 1e-9:
        raise DssValueError(f"expected an integer, got {text!r}")
    return iv
