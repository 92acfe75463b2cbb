"""Tagger tests: feature template, training convergence, snapshot rules."""

import pytest
from synth import make_corpus

from udbridge.errors import DataError
from udbridge.tagger import token_features, train_tagger


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
