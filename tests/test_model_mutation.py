"""Mutated model files: one value of a trained payload replaced. The model
either loads and annotates into CoNLL-U that reads back, or ends as a
DataError with CLI exit 2; never a traceback, never unreadable output."""

import copy
import io
import json
from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from synth import corpus_text, make_corpus

from udbridge.cli import main
from udbridge.conllu import parse_conllu, serialize_conllu
from udbridge.pipeline import train_pipeline

TEXT = corpus_text(make_corpus(6, seed=7)) + "\nHy skriuwt _ ."

# a few values per kind; "_" is unset in CoNLL-U, "FOO" no UD tag
VALUES = ["", "\t", "\n", "FOO", "_", -1, 0, "1.0"]


@pytest.fixture(scope="module")
def payload(tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("mutant") / "model.json"
    train_pipeline(make_corpus(40, seed=1), epochs=1).save(str(path))
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def paths(payload) -> st.SearchStrategy:
    """Where a value can be replaced: every node but the weight rows, and
    a spread of ~60 weight rows and weights. Class lists and labels, the
    lemmatizer rules and the rest are drawn about equally often."""
    found = []

    def walk(node, path):
        if path:
            found.append(path)
        if isinstance(node, (dict, list)):
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(child, path + (key,))

    walk(payload, ())
    weighted = [p for p in found if "weights" in p[:-1]]
    found = [p for p in found if "weights" not in p[:-1]] + weighted[:: max(1, len(weighted) // 60)]
    labels = [p for p in found if {"classes", "labels", "root_label"} & set(p)]
    rules = [p for p in found if p[0] == "lemmatizer"]
    rest = [p for p in found if p not in labels and p not in rules]
    return st.one_of(*map(st.sampled_from, (labels, rules, rest)))


def mutate(payload: dict, path: tuple, value) -> dict:
    """A copy of `payload` with the value at `path` replaced. A renamed
    class is renamed in its weight rows too, so it is still predicted."""
    bad = copy.deepcopy(payload)
    parent = reduce(lambda node, key: node[key], path[:-1], bad)
    old, parent[path[-1]] = parent[path[-1]], value
    if path[:2] == ("tagger", "classes") and len(path) == 4:
        rows = bad["tagger"]["weights"].get(path[2])
    elif path[:2] == ("parser", "classes") and len(path) == 3:
        rows = bad["parser"]["weights"]
    else:
        rows = None
    if type(rows) is dict and type(value) is str:
        for row in rows.values():
            if type(row) is dict and old in row:
                row[value] = row.pop(old)
    return bad


def check_mutant(bad: dict, tmp_path) -> None:
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = main(["annotate", "--model", str(path)], stdin=io.StringIO(TEXT), stdout=out,
                stderr=err)
    if code == 0:
        text = out.getvalue()
        assert serialize_conllu(parse_conllu(text)) == text
    else:
        assert code == 2 and err.getvalue().startswith("error: "), err.getvalue()


@pytest.mark.parametrize("value", VALUES, ids=repr)
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_replaced_value_loads_cleanly_or_is_refused(payload, paths, tmp_path, value, data):
    path = data.draw(paths, label="path")
    check_mutant(mutate(payload, path, value), tmp_path)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_replaced_value_loads_cleanly_or_is_refused(payload, paths, tmp_path, data):
    path = data.draw(paths, label="path")
    value = data.draw(st.one_of(
        st.text(max_size=4), st.integers(-3, 3), st.floats(allow_nan=False),
        st.sampled_from([None, True, [], {}]),
    ), label="value")
    check_mutant(mutate(payload, path, value), tmp_path)
