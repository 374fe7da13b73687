"""A fixed-seed slice of the input fuzz: character-level mutants of the
bundled feeders, and periods documents and solution files with values
swapped for ones of the wrong type or range, go through the command line.
Every run must end in a documented exit code with no exception escaping
``main``, and an input error writes no artifact."""
import json
import random
import shutil

from feederflow.cli import main

from conftest import ALL_FIXTURES, FIXTURE_DIR

SEED = 2020
# characters that keep most mutants lexically valid DSS, so that they reach
# the value parsers, the network checks and the solvers
DSS_CHARS = "0123456789.-e= \nabkw"
DSS_COMMANDS = (
    ("pf",),
    ("pf", "--method", "bfs"),
    ("export", "--form", "socbfm"),
    ("export", "--form", "acr"),
    ("opf",),
)
# JSON values of the wrong type or range, NaN and Infinity included, which
# json.load accepts
JSON_VALUES = (None, True, "x", "nan", 0, -1.0, float("nan"), float("inf"), [], [1.0], {})


def _dss_mutant(text: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars))
        op = rng.randrange(3)
        if op == 0:
            del chars[k]
        elif op == 1:
            chars.insert(k, rng.choice(DSS_CHARS))
        else:
            chars[k] = rng.choice(DSS_CHARS)
    return "".join(chars)


def _json_mutant(text: str, rng: random.Random) -> str:
    """The document with one node (the root included) replaced by a value
    from ``JSON_VALUES``."""
    doc = json.loads(text)
    nodes = [(None, None)]  # (container, key); (None, None) is the root
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            nodes.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    container, key = rng.choice(nodes)
    value = rng.choice(JSON_VALUES)
    if container is None:
        doc = value
    else:
        container[key] = value
    return json.dumps(doc)


def _run(capsys, argv, allowed=(0, 2, 3, 4)):
    capsys.readouterr()
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in allowed, f"{argv}: exit {code}\n{err}"
    if code == 2:
        assert out == "", f"{argv}: exit 2 wrote an artifact"
    return code


def test_mutated_inputs_end_in_documented_exit_codes(capsys, tmp_path):
    rng = random.Random(SEED)
    # mutants sit next to the fixtures so that redirects still resolve
    work = tmp_path / "fixtures"
    shutil.copytree(FIXTURE_DIR, work)
    for i in range(40):
        source = work / f"{rng.choice(ALL_FIXTURES)}.dss"
        mutant = work / f"mutant{i}.dss"
        mutant.write_text(_dss_mutant(source.read_text(), rng))
        for command in DSS_COMMANDS:
            _run(capsys, (command[0], str(mutant), *command[1:]))

    storage = str(work / "storage_two_period.dss")
    periods = (work / "periods_two.json").read_text()
    for i in range(20):
        mutant = tmp_path / f"periods{i}.json"
        mutant.write_text(_json_mutant(periods, rng))
        _run(capsys, ("opf", storage, "--periods", str(mutant)))

    good = tmp_path / "good.json"
    assert _run(capsys, ("pf", str(work / "two_bus.dss"), "--out", str(good))) == 0
    solution = good.read_text()
    for i in range(20):
        mutant = tmp_path / f"solution{i}.json"
        mutant.write_text(_json_mutant(solution, rng))
        # a changed voltage is a legitimate comparison failure (exit 5)
        _run(capsys, ("compare", str(good), str(mutant)), allowed=(0, 2, 5))
