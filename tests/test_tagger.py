"""Tagger tests: feature template, training convergence, snapshot rules."""

import random

import pytest
from oracles import token_features
from synth import _crossing_corpus, make_corpus

from udbridge import tagger, util
from udbridge.errors import DataError
from udbridge.perceptron import compile_rows
from udbridge.tagger import _PAD, ATTRIBUTES, TaggerModel, train_tagger
from udbridge.tokenizer import tokenize


def test_feature_template_exact_contents():
    feats = token_features(["De", "man", "rint"], 0, "<s>", "<s>")
    assert feats == [
        "bias",
        "w=De",
        "lw=de",
        "pre1=d", "suf1=e",
        "pre2=de", "suf2=de",
        "pre3=de", "suf3=de",
        "pre4=de", "suf4=de",
        "pw=<s>",
        "nw=man",
        "pt=<s>",
        "ppt=<s>+<s>",
        "cap",
    ]


def test_feature_template_middle_token_and_digits():
    feats = token_features(["de", "12e", "man"], 1, "DET", "<s>")
    assert "pw=de" in feats
    assert "nw=man" in feats
    assert "pt=DET" in feats
    assert "ppt=<s>+DET" in feats
    assert "hasdigit" in feats
    assert "cap" not in feats


def test_training_learns_the_closed_vocabulary():
    corpus = make_corpus(120, seed=1)
    heldout = make_corpus(30, seed=2)
    model = train_tagger(corpus, epochs=5)
    correct = total = 0
    for sent in heldout.sentences:
        got = model.predict_attribute([t.form for t in sent.tokens], "upos")
        for g, tok in zip(got, sent.tokens):
            correct += g == tok.upos
            total += 1
    assert correct / total >= 0.98


def test_all_three_attributes_are_predicted():
    corpus = make_corpus(80, seed=4)
    model = train_tagger(corpus, epochs=3)
    out = model.predict(["De", "frou", "sjocht", "."])
    assert out["upos"] == ["DET", "NOUN", "VERB", "PUNCT"]
    assert out["xpos"] == ["lw", "n", "ww", "let"]
    assert out["feats"][2] == "Number=Sing|Person=3"
    assert out["feats"][3] == "_"


def test_dev_snapshot_is_deterministic():
    corpus = make_corpus(60, seed=5)
    dev = make_corpus(15, seed=6)
    a = train_tagger(corpus, dev, epochs=3)
    b = train_tagger(corpus, dev, epochs=3)
    assert a.weights == b.weights
    assert a.classes == b.classes


def test_dev_without_tokens_is_a_data_error():
    dev = make_corpus(3, seed=6)
    for sent in dev.sentences:
        sent.tokens = []
    with pytest.raises(DataError, match="dev document has no tokens"):
        train_tagger(make_corpus(20, seed=5), dev, epochs=1)


def test_training_rejects_missing_upos_and_empty_doc():
    corpus = make_corpus(5, seed=7)
    corpus.sentences[2].tokens[1].upos = None
    with pytest.raises(DataError) as exc_info:
        train_tagger(corpus)
    assert "synth-3" in str(exc_info.value)
    from udbridge.conllu import Document

    with pytest.raises(DataError):
        train_tagger(Document())
    with pytest.raises(DataError):
        train_tagger(make_corpus(5, seed=1), epochs=0)


def _upos_only(model: TaggerModel) -> TaggerModel:
    return TaggerModel({"upos": model.weights["upos"]}, {"upos": model.classes["upos"]})


# The trained models and annotated texts of test_pipeline's golden bytes.
@pytest.mark.parametrize("make, n, seed", [
    (make_corpus, 60, 7), (make_corpus, 120, 11), (_crossing_corpus, 90, 7),
])
def test_a_upos_only_model_tags_upos_as_the_full_model_does(make, n, seed):
    full = train_tagger(make(n, seed), make_corpus(20, seed=seed + 1), epochs=2)
    upos = _upos_only(full)
    texts = [make_corpus(20, seed=k) for k in (21, 22, 23)]
    texts.append(tokenize("Jan fynt 12 x-beamen yn Ljouwert.\nDe kat sliept a b C."))
    for doc in texts:
        for sent in doc.sentences:
            forms = [t.form for t in sent.tokens]
            assert upos.predict(forms) == {"upos": full.predict(forms)["upos"]}


def test_a_upos_only_model_tags_random_weights_with_ties_as_the_full_model_does():
    rng = random.Random(29)
    words = ("a", "Ab", "b2", "ab", "<s>")
    for _ in range(40):
        classes = {attr: rng.sample(["<s>", "A", "B", "C"], rng.randint(1, 4))
                   for attr in ATTRIBUTES}
        weights = {}
        for attr, names in classes.items():
            history = names + [_PAD]
            feats = {feat for w in words for prev in history for prev2 in history
                     for i in (0, 1) for feat in token_features([w, w], i, prev, prev2)}
            # few values, so that equal scores (ties) are common
            weights[attr] = {
                feat: {cls: rng.choice((-1.0, 0.0, 0.5, 1.0))
                       for cls in rng.sample(names, rng.randint(1, len(names)))}
                for feat in sorted(feats) if rng.random() < 0.3
            }
        full = TaggerModel(weights, classes)
        upos = _upos_only(full)
        for _ in range(5):
            forms = rng.choices(words, k=rng.randint(1, 8))
            assert upos.predict(forms) == {"upos": full.predict(forms)["upos"]}


def test_a_model_tags_only_the_attributes_it_has_classes_for():
    assert TaggerModel().predict(["a"]) == {}
    model = TaggerModel({"xpos": {"bias": {"n": 1.0}}}, {"xpos": ["n", "ww"], "feats": []})
    assert model.predict(["a", "b"]) == {"xpos": ["n", "n"]}


def test_training_gives_the_same_weights_when_the_form_memo_is_cleared(monkeypatch):
    corpus = make_corpus(60, seed=5)
    dev = make_corpus(15, seed=6)
    want = train_tagger(corpus, dev, epochs=3)
    monkeypatch.setattr(util, "MEMO_ENTRIES", 8)
    got = train_tagger(corpus, dev, epochs=3)
    assert got.weights == want.weights
    assert got.classes == want.classes


@pytest.mark.parametrize("epochs", [1, 2, 3])
def test_training_with_dev_compiles_each_table_once(monkeypatch, epochs):
    # one UPOS table per epoch for the dev scorer, which the returned model
    # takes from the best epoch, then the XPOS and FEATS tables
    calls = []

    def counting(weights, classes):
        calls.append(1)
        return compile_rows(weights, classes)

    monkeypatch.setattr(tagger, "compile_rows", counting)
    train_tagger(make_corpus(60, seed=1), make_corpus(20, seed=2), epochs=epochs)
    assert len(calls) == epochs + 2
    calls.clear()
    train_tagger(make_corpus(60, seed=1), epochs=epochs)
    assert len(calls) == 3


def _weight_dicts(node, seen=None) -> int:
    """How many dicts reachable from `node` through dicts, lists and
    tuples map a key to a dict of numbers: weight tables in dict form."""
    seen = set() if seen is None else seen
    if id(node) in seen or not isinstance(node, (dict, list, tuple)):
        return 0
    seen.add(id(node))
    values = list(node.values()) if isinstance(node, dict) else node
    found = isinstance(node, dict) and any(
        isinstance(v, dict) and v and all(type(w) in (int, float) for w in v.values())
        for v in values)
    return found + sum(_weight_dicts(v, seen) for v in values)


def test_a_trained_model_keeps_its_tables_only():
    model = train_tagger(make_corpus(60, seed=1), make_corpus(20, seed=2), epochs=2)
    model.predict(["De", "man", "rint", "."])
    assert _weight_dicts(vars(model)) == 0
    assert _weight_dicts(model.weights) == len(ATTRIBUTES)
    # built from dicts, as PipelineModel.load builds it
    again = TaggerModel(model.weights, model.classes)
    assert _weight_dicts(vars(again)) == 0
    assert again.weights == model.weights
    assert TaggerModel().weights == {attr: {} for attr in ATTRIBUTES}
