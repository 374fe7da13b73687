"""Statement tokenization: comments, continuations, quoting, positions."""
import pytest

from feederflow.dss import DssParseError, RedirectCycleError, resolve_redirects, tokenize

from conftest import fixture_path


def test_basic_statement():
    (s,) = tokenize("new line.l1 bus1=a bus2=b length=2.5")
    assert s.verb == "new"
    assert s.object_class == "line"
    assert s.object_name == "l1"
    assert dict(s.properties) == {"bus1": "a", "bus2": "b", "length": "2.5"}


def test_comments_stripped():
    text = "! full line comment\nnew load.a bus1=x kw=5 // trailing\n"
    (s,) = tokenize(text)
    assert dict(s.properties) == {"bus1": "x", "kw": "5"}


def test_continuation_joins():
    text = "new linecode.c1 nphases=2\n~ rmatrix=(1 | 0.2 1)\n~ xmatrix=(2 | 0.4 2)\n"
    (s,) = tokenize(text)
    props = dict(s.properties)
    assert set(props) == {"nphases", "rmatrix", "xmatrix"}


def test_dangling_continuation_rejected():
    with pytest.raises(DssParseError):
        tokenize("~ kw=5\n")


def test_positional_properties():
    (s,) = tokenize("new capacitor.cb bus1 kvar")
    assert s.properties == [(0, "bus1"), (1, "kvar")]


def test_spaced_equals():
    (s,) = tokenize("new load.a bus1 = n7 kw = 12")
    assert dict(s.properties) == {"bus1": "n7", "kw": "12"}


def test_quoted_values():
    (s,) = tokenize('new line.q bus1="busy name" length=1')
    assert dict(s.properties)["bus1"] == "busy name"


def test_unterminated_quote_rejected():
    with pytest.raises(DssParseError):
        tokenize('new line.q bus1="oops')


def test_verbs():
    stmts = tokenize("new load.a bus1=x\nedit load.a kw=2\nset mode=snap\nsolve\nclear")
    # action statements alien to the static data model pass through as "other"
    assert [s.verb for s in stmts] == ["new", "edit", "set", "other", "other"]
    assert stmts[3].raw == "solve"


def test_sample_fixture_statement_histogram():
    stmts = resolve_redirects(str(fixture_path("sample10")))
    assert len(stmts) == 10
    hist: dict[str, int] = {}
    for s in stmts:
        hist[s.object_class] = hist.get(s.object_class, 0) + 1
    assert hist == {"circuit": 1, "linecode": 1, "line": 3, "load": 4, "transformer": 1}


def test_redirect_depth_first_order():
    stmts = resolve_redirects(str(fixture_path("redirect_main")))
    names = [s.object_name for s in stmts if s.object_class in ("line", "load")]
    assert names == ["r1", "r2", "mid_ld", "tail_ld"]
    # trailing statements of the outer file come after the spliced content
    assert stmts[-1].raw == "solve"


def test_redirect_cycle_detected():
    with pytest.raises(RedirectCycleError) as exc:
        resolve_redirects(str(fixture_path("redirect_cycle_a")))
    msg = str(exc.value)
    assert "redirect_cycle_a" in msg and "redirect_cycle_b" in msg


def test_redirect_missing_file():
    with pytest.raises(DssParseError):
        resolve_redirects(str(fixture_path("does_not_exist")))


# -- edge cases of the grouping grammar ----------------------------------------
# Each row gives the (verb, class, name, properties) of every statement, or
# the error class and message that tokenize raises.

_LOAD = ("new", "load", "a")


@pytest.mark.parametrize(
    "text,want",
    [
        # whitespace around '=' and degenerate assignments
        ("new load.a kw = 5", [(*_LOAD, [("kw", "5")])]),
        ("new load.a kw= 5", [(*_LOAD, [("kw", "5")])]),
        ("new load.a kw =5", [(*_LOAD, [("kw", "5")])]),
        ("new load.a kw == 5", (DssParseError, "line 1: empty property name in '==5'")),
        ("new load.a =5 kw=1", (DssParseError, "line 1: empty property name in '=5'")),
        ("new load.a kw=1 = 2", [(*_LOAD, [("kw", "1=2")])]),
        ("new load.a kw =", (DssParseError, "line 1: empty property name in '='")),
        # quotes hold comment starts, separators, brackets and spaces
        ('new load.a bus1="x!y"', [(*_LOAD, [("bus1", "x!y")])]),
        ('new load.a bus1="x//y" kw=1', [(*_LOAD, [("bus1", "x//y"), ("kw", "1")])]),
        ('new load.a bus1="x,y"', [(*_LOAD, [("bus1", "x,y")])]),
        ("new load.a bus1='[x (y' kw=1", [(*_LOAD, [("bus1", "[x (y"), ("kw", "1")])]),
        ('new load.a bus1="x y" kw=1', [(*_LOAD, [("bus1", "x y"), ("kw", "1")])]),
        ("new load.a bus1='x\"y'", [(*_LOAD, [("bus1", "x\"y")])]),
        # '//' starts a comment, a single '/' does not
        ("new load.a c=1/2", [(*_LOAD, [("c", "1/2")])]),
        ("new load.a c=1//2", [(*_LOAD, [("c", "1")])]),
        ("new load.a c=1 /2 /", [(*_LOAD, [("c", "1"), (0, "/2"), (1, "/")])]),
        # brackets of either kind group, and nest
        ("new load.a kw=[(1 2 +) 4]", [(*_LOAD, [("kw", "[(1 2 +) 4]")])]),
        ("new load.a kw=[1 [2, 3]] kv=2", [(*_LOAD, [("kw", "[1 [2, 3]]"), ("kv", "2")])]),
        ("new load.a kw=[1 2)", [(*_LOAD, [("kw", "[1 2)")])]),
        ("new load.a kw=1)", (DssParseError, "line 1: unbalanced bracket in 'new load.a kw=1)'")),
        ("new load.a kw=(1 2", (DssParseError, "line 1: unbalanced bracket in 'new load.a kw=(1 2'")),
        ("new load.a kw=[1\n~ 2] kv=3", [(*_LOAD, [("kw", "[1 2]"), ("kv", "3")])]),
        # unterminated quotes are reported on their own line
        ("new load.a kw=1\n~ bus1='x", (DssParseError, "line 2: unterminated quote: \"~ bus1='x\"")),
        ('new load.a bus1="x ! y', (DssParseError, "line 1: unterminated quote: 'new load.a bus1=\"x ! y'")),
        ("new load.a kw=1 ! don't", [(*_LOAD, [("kw", "1")])]),
        # continuations skip comment-only lines but need a statement first
        ("new load.a kw=1\n! only comment\n~ kv=2", [(*_LOAD, [("kw", "1"), ("kv", "2")])]),
        ("! only comment\n~ kw=5", (DssParseError, "line 2: continuation '~' with no preceding statement")),
        # commas separate fields like whitespace
        ("set a=1,b=2", [("set", "", "", [("a", "1"), ("b", "2")])]),
        ("new load.a bus1=x,,kw=5", [(*_LOAD, [("bus1", "x"), ("kw", "5")])]),
    ],
)
def test_grouping_edge_cases(text, want):
    if isinstance(want, tuple):
        cls, message = want
        with pytest.raises(cls) as exc:
            tokenize(text)
        assert type(exc.value) is cls
        assert str(exc.value) == message
    else:
        got = [(s.verb, s.object_class, s.object_name, s.properties) for s in tokenize(text)]
        assert got == want
