"""Scalar, expression, array and matrix value parsing."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feederflow.dss import DssValueError, parse_matrix, parse_number, parse_rpn
from feederflow.dss.values import parse_array_numbers, parse_array_strings


# -- plain numbers -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1.0),
        ("-2.5", -2.5),
        ("3e2", 300.0),
        ("1d3", 1000.0),
        ("1D-2", 0.01),
        (" 4.25 ", 4.25),
        (".5", 0.5),
    ],
)
def test_parse_number(text, value):
    assert parse_number(text) == value


# float() overflows the last five to inf (and inf * 0 to nan) instead of raising
@pytest.mark.parametrize(
    "text",
    ["", "abc", "1..2", "--3", "1e", "(1 2)(", "2 3",
     "1e400", "-1e400", "1d999", "(1e200 1e200 *)", "(1e400 0 *)"],
)
def test_parse_number_rejects(text):
    with pytest.raises(DssValueError):
        parse_number(text)


# -- reverse-Polish expressions ----------------------------------------------
# The oracle builds random expression trees and evaluates them structurally
# during generation, then linearizes to postfix for the stack machine. The
# evaluation orders coincide, so results must agree essentially exactly.


def _gen_expr(rng: random.Random, depth: int) -> tuple[list[str], float]:
    if depth == 0 or rng.random() < 0.35:
        v = round(rng.uniform(-10.0, 10.0), 3)
        return [repr(v)], v
    if rng.random() < 0.6:
        op = rng.choice(["+", "-", "*", "/"])
        lt, lv = _gen_expr(rng, depth - 1)
        rt, rv = _gen_expr(rng, depth - 1)
        if op == "/" and abs(rv) < 1e-6:
            rt, rv = ["2.0"], 2.0
        val = {"+": lv + rv, "-": lv - rv, "*": lv * rv, "/": lv / rv if rv else 0.0}[op]
        return lt + rt + [op], val
    op = rng.choice(["sqrt", "sqr", "inv"])
    t, v = _gen_expr(rng, depth - 1)
    if op == "sqrt" and v < 0:
        op = "sqr"
    if op == "inv" and abs(v) < 1e-6:
        op = "sqr"
    val = {"sqrt": math.sqrt(abs(v)) if v >= 0 else v * v, "sqr": v * v, "inv": 1.0 / v if v else v}[op]
    return t + [op], val


def test_rpn_oracle_1000():
    rng = random.Random(20240817)
    checked = 0
    while checked < 1000:
        tokens, want = _gen_expr(rng, rng.randint(1, 4))
        if not math.isfinite(want) or abs(want) > 1e9:
            continue
        got = parse_rpn("(" + " ".join(tokens) + ")")
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (tokens, got, want)
        checked += 1


@pytest.mark.parametrize(
    "expr,value",
    [
        ("(2 3 +)", 5.0),
        ("(10 2 /)", 5.0),
        ("(2 sqr)", 4.0),
        ("(16 sqrt)", 4.0),
        ("(4 inv)", 0.25),
        ("(1 2 + 3 *)", 9.0),
    ],
)
def test_rpn_examples(expr, value):
    assert parse_rpn(expr) == value


@pytest.mark.parametrize(
    "expr", ["()", "(+)", "(1 +)", "(1 2)", "(1 0 /)", "(0 inv)", "(1 2 bogus)", "1 2 +"]
)
def test_rpn_rejects(expr):
    with pytest.raises(DssValueError):
        parse_rpn(expr)


# -- arrays -------------------------------------------------------------------


def test_array_bracket_styles():
    for text in ("[1 2 3]", "(1 2 3)", '"1 2 3"', "1 2 3", "[1, 2, 3]"):
        assert parse_array_numbers(text) == [1.0, 2.0, 3.0]


def test_array_strings():
    assert parse_array_strings("[wye, delta]") == ["wye", "delta"]


def test_array_rpn_entries():
    assert parse_array_numbers("[(1 2 +) 4]") == [3.0, 4.0]


# -- matrices ------------------------------------------------------------------


def test_matrix_lower_triangle_mirrors():
    m = parse_matrix("(1.0 | 0.5 2.0 | 0.25 0.75 3.0)", 3)
    assert m == [[1.0, 0.5, 0.25], [0.5, 2.0, 0.75], [0.25, 0.75, 3.0]]


def test_matrix_upper_triangle_mirrors():
    m = parse_matrix("(1.0 0.5 0.25 | 2.0 0.75 | 3.0)", 3)
    assert m == [[1.0, 0.5, 0.25], [0.5, 2.0, 0.75], [0.25, 0.75, 3.0]]


def test_matrix_full_symmetric():
    m = parse_matrix("(1 2 | 2 5)", 2)
    assert m == [[1.0, 2.0], [2.0, 5.0]]


def test_matrix_full_asymmetric_rejected():
    with pytest.raises(DssValueError):
        parse_matrix("(1 2 | 3 5)", 2)


def test_matrix_ragged_rejected():
    with pytest.raises(DssValueError):
        parse_matrix("(1 | 2 3 4)", 3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_matrix_mirror_property(n, data):
    entries = {}
    rows = []
    for i in range(n):
        row = []
        for j in range(i + 1):
            v = data.draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
            entries[(i, j)] = v
            row.append(repr(v))
        rows.append(" ".join(row))
    text = "(" + " | ".join(rows) + ")"
    m = parse_matrix(text, n)
    for i in range(n):
        for j in range(n):
            want = entries[(i, j)] if i >= j else entries[(j, i)]
            assert m[i][j] == want
            assert m[i][j] == m[j][i]


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_number_repr_roundtrip(x):
    assert parse_number(repr(x)) == x


# -- element grouping ------------------------------------------------------------
# Array elements group on parentheses only: quotes and square brackets inside
# an array are plain characters.


@pytest.mark.parametrize(
    "parse,text,want",
    [
        (parse_array_numbers, "(1 2 +)", (DssValueError, "not a number: '+'")),
        (parse_array_numbers, "((1 2 +))", [3.0]),
        (parse_array_numbers, "[(1 2 +) 0 0]", [3.0, 0.0, 0.0]),
        (parse_array_numbers, "[(1 2 +),4]", [3.0, 4.0]),
        (parse_array_numbers, "[1 (2]", (DssValueError, "unbalanced parentheses in '1 (2'")),
        (parse_array_numbers, "[1 2)]", (DssValueError, "unbalanced parentheses in '1 2)'")),
        (parse_array_strings, '["a b" c]', ['"a', 'b"', "c"]),
        (parse_array_strings, "['x,y' z]", ["'x", "y'", "z"]),
        (parse_array_strings, "[a!b c//d]", ["a!b", "c//d"]),
        (parse_array_strings, "[[a b] c]", ["[a", "b]", "c"]),
        (parse_array_strings, "[a (b c) d]", ["a", "(b c)", "d"]),
        (parse_array_strings, "[ , ]", (DssValueError, "empty array: '[ , ]'")),
    ],
)
def test_array_element_edge_cases(parse, text, want):
    if isinstance(want, tuple):
        cls, message = want
        with pytest.raises(cls) as exc:
            parse(text)
        assert str(exc.value) == message
    else:
        assert parse(text) == want


def test_matrix_row_split_respects_parens():
    assert parse_matrix("[(1 1 +) | (2 2 *) 4]", 2) == [[2.0, 4.0], [4.0, 4.0]]
    with pytest.raises(DssValueError) as exc:
        parse_matrix("[(1 1 +) | (2 2 * 4]", 2)
    assert str(exc.value) == "unbalanced parentheses in ' (2 2 * 4'"
