"""Malformed model files end as DataError (CLI exit 2), never a traceback."""

import io
import json
import re

import pytest
from synth import make_corpus

from udbridge.cli import main
from udbridge.errors import DataError
from udbridge.pipeline import PipelineModel, train_pipeline


@pytest.fixture(scope="module")
def payload(tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("model") / "model.json"
    train_pipeline(make_corpus(40, seed=1), epochs=1).save(str(path))
    return json.loads(path.read_text(encoding="utf-8"))


def write(tmp_path, payload) -> str:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def annotate_exit(path: str) -> tuple[int, str]:
    err = io.StringIO()
    code = main(["annotate", "--model", path], stdin=io.StringIO("De man rint."),
                stdout=io.StringIO(), stderr=err)
    return code, err.getvalue()


def first_row(table: dict) -> str:
    return next(feat for feat, row in table.items() if row)


def test_missing_lemmatizer_is_a_data_error(payload, tmp_path):
    bad = dict(payload)
    del bad["lemmatizer"]
    path = write(tmp_path, bad)
    with pytest.raises(DataError, match="missing 'lemmatizer'"):
        PipelineModel.load(path)
    code, err = annotate_exit(path)
    assert code == 2 and err.startswith("error: ")


def test_weight_row_stored_as_a_list_is_a_data_error(payload, tmp_path):
    bad = json.loads(json.dumps(payload))
    weights = bad["parser"]["weights"]
    feat = first_row(weights)
    weights[feat] = list(weights[feat].items())
    path = write(tmp_path, bad)
    with pytest.raises(DataError, match="malformed model"):
        PipelineModel.load(path)
    code, err = annotate_exit(path)
    assert code == 2 and err.startswith("error: ")


def _string_weight(p):
    weights = p["tagger"]["weights"]["upos"]
    row = weights[first_row(weights)]
    row[next(iter(row))] = "1.0"


def _string_in_lemma_rule(p):
    p["lemmatizer"][0][2] = "1"


def _drop(section, key):
    def mutate(p):
        del p[section][key]
    return mutate


def _set(section, key, value):
    def mutate(p):
        p[section][key] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _string_weight,
    _string_in_lemma_rule,
    _drop("parser", "root_label"),
    _drop("tokenizer", "terminators"),
    _set("tagger", "classes", {"upos": ["NOUN"], "xpos": ["n"]}),
    _set("parser", "classes", ["shift", 3]),
    _set("parser", "classes", ["left:dep", "left:dep", "shift"]),
    _set("parser", "labels", "dep"),
    _set("tokenizer", "punctuation", [".", ","]),
])
def test_other_malformed_fields_are_data_errors(payload, tmp_path, mutate):
    bad = json.loads(json.dumps(payload))
    mutate(bad)
    with pytest.raises(DataError, match="malformed model"):
        PipelineModel.load(write(tmp_path, bad))


def test_unparseable_feats_class_is_a_data_error(payload, tmp_path):
    bad = json.loads(json.dumps(payload))
    bad["tagger"]["classes"]["feats"].append("Case")
    path = write(tmp_path, bad)
    with pytest.raises(DataError, match="tagger feats class 'Case'"):
        PipelineModel.load(path)
    code, err = annotate_exit(path)
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("move", ["zzz", "left:", "right:a b", "shift:dep", "Left:dep"])
def test_malformed_parser_move_is_a_data_error(payload, tmp_path, move):
    # Loaded, "zzz" used to fail every annotation as an unknown transition
    # (a 400 from the service), and "left:" wrote an empty DEPREL.
    bad = json.loads(json.dumps(payload))
    bad["parser"]["classes"] = sorted(bad["parser"]["classes"] + [move])
    path = write(tmp_path, bad)
    with pytest.raises(DataError, match=f"malformed model: parser class {re.escape(repr(move))}"):
        PipelineModel.load(path)
    code, err = annotate_exit(path)
    assert code == 2 and err.startswith("error: ") and repr(move) in err
    err = io.StringIO()
    code = main(["serve", "--bind", "127.0.0.1:0", "--model", path], stdin=io.StringIO(),
                stdout=io.StringIO(), stderr=err)
    assert code == 2 and repr(move) in err.getvalue()


@pytest.mark.parametrize("label", ["", "a b", "root\n"])
def test_malformed_root_label_is_a_data_error(payload, tmp_path, label):
    bad = json.loads(json.dumps(payload))
    bad["parser"]["root_label"] = label
    path = write(tmp_path, bad)
    with pytest.raises(DataError, match="malformed model: parser root_label"):
        PipelineModel.load(path)
    code, err = annotate_exit(path)
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("body", [[], "text", {"format": "udbridge-pipeline", "version": 1}])
def test_non_model_json_is_a_data_error(tmp_path, body):
    with pytest.raises(DataError):
        PipelineModel.load(write(tmp_path, body))


def test_reloaded_model_annotates_like_the_trained_one(payload, tmp_path):
    path = write(tmp_path, payload)
    loaded = PipelineModel.load(path)
    loaded.save(str(tmp_path / "again.json"))
    assert json.loads((tmp_path / "again.json").read_text(encoding="utf-8")) == payload


@pytest.mark.parametrize("index, value", [
    (2, -3),  # a negative strip length appended to the whole form
    (4, "weird"),  # an unknown casing op was taken for "keep"
    (5, -5),
    (5, 0),
])
def test_lemmatizer_rule_values_are_checked(payload, tmp_path, index, value):
    bad = json.loads(json.dumps(payload))
    bad["lemmatizer"][0][index] = value
    path = write(tmp_path, bad)
    with pytest.raises(DataError, match="malformed model: lemmatizer rule"):
        PipelineModel.load(path)
    code, err = annotate_exit(path)
    assert code == 2 and err.startswith("error: ")
