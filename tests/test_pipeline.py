import hashlib
import json
import os

import pytest

from synth import _crossing_corpus, corpus_text, make_corpus, strip_annotations
from udbridge.conllu import parse_conllu, serialize_conllu
from udbridge.depparser import ParserModel
from udbridge.errors import DataError
from udbridge.lemmatizer import LemmaRules
from udbridge.pipeline import (
    EvalSetting,
    PipelineModel,
    annotate,
    split_corpus,
    train_pipeline,
)
from udbridge.tagger import TaggerModel
from udbridge.tokenizer import TokenizerConfig, tokenize


@pytest.fixture(scope="module")
def model() -> PipelineModel:
    return train_pipeline(make_corpus(120, seed=1), dev=make_corpus(20, seed=2), epochs=3)


# ---------------------------------------------------------------- settings


def test_eval_setting_parse():
    assert EvalSetting.parse("raw") is EvalSetting.RAW_TEXT
    assert EvalSetting.parse("goldtok") is EvalSetting.GOLD_TOK
    assert EvalSetting.parse("goldtokmorph") is EvalSetting.GOLD_TOK_MORPH
    with pytest.raises(DataError, match="raw, goldtok, goldtokmorph"):
        EvalSetting.parse("gold")


# ---------------------------------------------------------------- splitting


def test_split_corpus_80_10_10():
    doc = make_corpus(100, seed=4)
    train, dev, test = split_corpus(doc)
    assert (len(train.sentences), len(dev.sentences), len(test.sentences)) == (80, 10, 10)
    ids = [s.sent_id for part in (train, dev, test) for s in part.sentences]
    assert sorted(ids) == sorted(s.sent_id for s in doc.sentences)
    assert len(set(ids)) == 100


def test_split_corpus_floors_fractions():
    train, dev, test = split_corpus(make_corpus(15, seed=0))
    assert (len(train.sentences), len(dev.sentences), len(test.sentences)) == (13, 1, 1)


def test_split_corpus_3126_sentences():
    parts = split_corpus(make_corpus(3126, seed=0))
    assert [len(p.sentences) for p in parts] == [2502, 312, 312]


def test_split_corpus_rejects_tiny_corpus():
    with pytest.raises(DataError, match="at least 10"):
        split_corpus(make_corpus(9, seed=0))


def test_split_corpus_copies_and_seed():
    doc = make_corpus(30, seed=5)
    train_a, _, _ = split_corpus(doc, seed=3)
    train_b, _, _ = split_corpus(doc, seed=3)
    assert [s.sent_id for s in train_a.sentences] == [s.sent_id for s in train_b.sentences]

    train_c, _, _ = split_corpus(doc, seed=4)
    assert [s.sent_id for s in train_a.sentences] != [s.sent_id for s in train_c.sentences]

    train_a.sentences[0].tokens[0].form = "mutated"
    originals = {s.sent_id: s for s in doc.sentences}
    touched = train_a.sentences[0]
    assert originals[touched.sent_id].tokens[0].form != "mutated"


# -------------------------------------------------------------- model file


def test_model_save_load_round_trip(model, tmp_path):
    path = str(tmp_path / "model.json")
    model.save(path)
    loaded = PipelineModel.load(path)

    text = corpus_text(make_corpus(10, seed=9))
    before = serialize_conllu(annotate(text, model, EvalSetting.RAW_TEXT))
    after = serialize_conllu(annotate(text, loaded, EvalSetting.RAW_TEXT))
    assert before == after
    assert loaded.metadata == model.metadata
    assert loaded.tokenizer_cfg.abbreviations == model.tokenizer_cfg.abbreviations


def test_model_file_is_versioned_json(model, tmp_path):
    path = str(tmp_path / "model.json")
    model.save(path)
    with open(path, encoding="utf-8") as fh:
        payload = json.loads(fh.read())
    assert payload["format"] == "udbridge-pipeline"
    assert payload["version"] == 1
    assert payload["metadata"]["train_sentences"] == 120


def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(model, tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    model.save(str(path))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        model.save(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]

    monkeypatch.undo()
    unsaveable = PipelineModel(model.tagger, model.lemma_rules, model.parser,
                               metadata={"bad": object()})
    with pytest.raises(TypeError):
        unsaveable.save(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


# SHA-256 of the saved model bytes; a faster trainer must not move them.
@pytest.mark.parametrize("make, n, seed, sha256", [
    (make_corpus, 60, 7, "f08d9934afe4a60c58c821bb5bf0856868715195b71052de024be9c24e776d61"),
    (make_corpus, 120, 11, "88d2efb212b8d5bfed15b7a14233ab79a24dcc1d44db37675cd1c2819cbce15d"),
    (_crossing_corpus, 90, 7, "d816ef02bb3fb17e4eb91c33b462b0cea70cd4b50901eab0abd99cbf705ab286"),
])
def test_trained_model_bytes_are_golden(make, n, seed, sha256, tmp_path):
    trained = train_pipeline(make(n, seed), make_corpus(20, seed=seed + 1), epochs=2)
    path = tmp_path / "model.json"
    trained.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    if make is _crossing_corpus:
        assert any("right:root" in row for row in trained.parser.weights.values())


@pytest.mark.parametrize("make, n, seed", [
    (make_corpus, 60, 7),
    (make_corpus, 120, 11),
    (_crossing_corpus, 90, 7),
])
def test_a_loaded_model_saves_the_bytes_it_was_read_from(make, n, seed, tmp_path):
    # the golden models above; the tagger's weights are rebuilt from its
    # tables at each save
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    train_pipeline(make(n, seed), make_corpus(20, seed=seed + 1), epochs=2).save(str(first))
    PipelineModel.load(str(first)).save(str(second))
    assert second.read_bytes() == first.read_bytes()


# Held-out text beyond the grammar: unseen forms, digits, capitals and
# one-letter words.
_UNSEEN_LINES = (
    "Jan fynt 12 x-beamen yn Ljouwert.\n"
    "De kat sliept a b C.\n"
    "In 3e hûs iepenet Wytske 2024 boeken."
)


# Gold tags for the unseen lines in the goldtokmorph setting, made-up
# ones among them.
_UNSEEN_TAGS = ("PROPN", "VERB", "NUM", "X", "NOUN", "ZZZ", "ADP", "PUNCT", "Q9")


def _golden_source(setting: EvalSetting, seed: int):
    gold = make_corpus(20, seed=seed)
    text = corpus_text(gold) + "\n" + _UNSEEN_LINES
    if setting is EvalSetting.RAW_TEXT:
        return text
    if setting is EvalSetting.GOLD_TOK:
        return tokenize(text)
    unseen = tokenize(_UNSEEN_LINES)
    for k, tok in enumerate(unseen.tokens()):
        tok.upos = _UNSEEN_TAGS[k % len(_UNSEEN_TAGS)]
    gold.sentences += unseen.sentences
    return gold


# SHA-256 of the annotated CoNLL-U; a faster tagger or parser must not
# move them. goldtokmorph runs the parser alone, on gold tags.
@pytest.mark.parametrize("setting, seed, sha256", [
    (EvalSetting.RAW_TEXT, 21, "44863f5ae3d54c7ec021318873199159af5353d746606b27f02ba6819b15cb6a"),
    (EvalSetting.GOLD_TOK, 22, "a8ba21c65d9cd252f18e90502a20912e0610a6c881b110ec22b65bff223024c4"),
    (EvalSetting.GOLD_TOK_MORPH, 23, "42af6984bf179a00ea29587d5bed10f0f0771bef9361f5666e918d0b4e5e34f5"),
])
def test_annotation_bytes_are_golden(model, setting, seed, sha256):
    out = serialize_conllu(annotate(_golden_source(setting, seed), model, setting))
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_reannotating_the_raw_text_output_on_its_tokens_gives_its_bytes(model):
    """The tokenizer's own `# text` and sent_ids read back and are written
    again unchanged, edge punctuation and sentence breaks included."""
    text = (corpus_text(make_corpus(20, seed=24)) + "\n" + _UNSEEN_LINES
            + "\n«Goeie», sei er (earlik)... Wat?! Echt. (Ja.)")
    raw = serialize_conllu(annotate(text, model, EvalSetting.RAW_TEXT))
    again = annotate(parse_conllu(raw), model, EvalSetting.GOLD_TOK)
    assert serialize_conllu(again) == raw


def test_every_annotated_token_gets_its_own_feats_dict(model):
    """FEATS classes are decoded once per model; a caller that edits one
    token's feats must not change another token or a later annotation."""
    text = corpus_text(make_corpus(10, seed=25))
    doc = annotate(text, model, EvalSetting.RAW_TEXT)
    feats = [tok.feats for tok in doc.tokens()]
    assert len({id(f) for f in feats}) == len(feats)
    want = serialize_conllu(doc)
    for f in feats:
        f["Edited"] = "Yes"
    assert serialize_conllu(annotate(text, model, EvalSetting.RAW_TEXT)) == want


def test_model_load_rejects_bad_files(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(DataError, match="cannot load"):
        PipelineModel.load(missing)

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="cannot load"):
        PipelineModel.load(str(garbage))

    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"format": "other", "version": 1}), encoding="utf-8")
    with pytest.raises(DataError, match="not a udbridge-pipeline file"):
        PipelineModel.load(str(alien))

    future = tmp_path / "future.json"
    future.write_text(
        json.dumps({"format": "udbridge-pipeline", "version": 99}), encoding="utf-8"
    )
    with pytest.raises(DataError, match="version"):
        PipelineModel.load(str(future))


def test_untrained_model_refuses_to_annotate():
    """A model without a trained tagger is refused when it is built."""
    parser = ParserModel(weights={}, classes=["left:dep", "right:dep", "shift"])
    with pytest.raises(DataError, match="no trained tagger"):
        PipelineModel(tagger=TaggerModel(), lemma_rules=LemmaRules(), parser=parser)


# -------------------------------------------------------------- annotation


def test_annotate_type_checks(model):
    with pytest.raises(DataError, match="raw text string"):
        annotate(make_corpus(2, seed=0), model, EvalSetting.RAW_TEXT)
    with pytest.raises(DataError, match="needs a Document"):
        annotate("De man rint.", model, EvalSetting.GOLD_TOK)


def test_annotate_raw_text_round_trip(model):
    gold = make_corpus(20, seed=7)
    doc = annotate(corpus_text(gold), model, EvalSetting.RAW_TEXT)
    assert len(doc.sentences) == 20
    got = [t.upos for s in doc.sentences for t in s.tokens]
    want = [t.upos for s in gold.sentences for t in s.tokens]
    assert got == want
    for sent in doc.sentences:
        assert sum(1 for t in sent.tokens if t.head == 0) == 1


def test_annotate_gold_tok_fills_all_layers(model):
    gold = make_corpus(12, seed=8)
    bare = strip_annotations(gold)
    doc = annotate(bare, model, EvalSetting.GOLD_TOK)

    # input document is copied, not annotated in place
    assert all(t.upos is None for s in bare.sentences for t in s.tokens)
    for sent, gold_sent in zip(doc.sentences, gold.sentences):
        for i, (tok, gold_tok) in enumerate(zip(sent.tokens, gold_sent.tokens)):
            assert tok.upos == gold_tok.upos
            if tok.lemma != gold_tok.lemma:
                # suffix scripts rank casing ops by frequency, so a rare
                # sentence-initial capitalization may survive as-is
                assert i == 0 and tok.lemma == tok.form
            assert tok.head is not None and tok.deprel is not None


def test_annotate_gold_tok_morph_preserves_gold_tags(model):
    doc = make_corpus(6, seed=3)
    # plant deliberately wrong gold morphology; it must survive untouched
    victim = doc.sentences[0].tokens[0]
    victim.upos = "X"
    victim.lemma = "sentinel"
    victim.feats = {"Foo": "Bar"}
    out = annotate(doc, model, EvalSetting.GOLD_TOK_MORPH)
    got = out.sentences[0].tokens[0]
    assert got.upos == "X"
    assert got.lemma == "sentinel"
    assert got.feats == {"Foo": "Bar"}
    for sent in out.sentences:
        assert all(t.head is not None for t in sent.tokens)


def test_gold_tok_morph_requires_gold_upos(model):
    doc = make_corpus(4, seed=3)
    doc.sentences[1].tokens[0].upos = None
    with pytest.raises(DataError, match="synth-2.*no gold upos"):
        annotate(doc, model, EvalSetting.GOLD_TOK_MORPH)


def test_annotate_maps_underscore_xpos_to_none():
    rows = []
    for _ in range(10):
        rows += [
            "1\tde\tde\tDET\t_\t_\t2\tdet\t_\t_",
            "2\tman\tman\tNOUN\t_\t_\t0\troot\t_\t_",
            "",
        ]
    doc = parse_conllu("\n".join(rows) + "\n")
    plain = train_pipeline(doc, epochs=1)
    out = annotate("de man", plain, EvalSetting.RAW_TEXT)
    assert all(t.xpos is None for s in out.sentences for t in s.tokens)


def test_train_pipeline_metadata(model):
    assert model.metadata["epochs"] == 3
    assert model.metadata["seed"] == 13
    assert len(model.metadata["corpus_hash"]) == 12


def test_pipeline_custom_tokenizer_cfg(tmp_path):
    cfg = TokenizerConfig(abbreviations={"bgl.", "s."})
    model = train_pipeline(make_corpus(40, seed=1), epochs=1, tokenizer_cfg=cfg)
    path = str(tmp_path / "m.json")
    model.save(path)
    assert PipelineModel.load(path).tokenizer_cfg.abbreviations == {"bgl.", "s."}


# ------------------------------------------------------- forked training


@pytest.mark.parametrize("make, n, seed", [
    (make_corpus, 60, 7),
    (make_corpus, 120, 11),
    (_crossing_corpus, 90, 7),
])
def test_forked_training_saves_the_inline_bytes(make, n, seed, tmp_path, monkeypatch, two_cpus):
    def saved(name):
        path = tmp_path / name
        train_pipeline(make(n, seed), make_corpus(20, seed=seed + 1), epochs=2).save(str(path))
        return path.read_bytes()

    forked = saved("forked.json")
    assert len(two_cpus) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert saved("inline.json") == forked
    assert len(two_cpus) == 1


def _headless_corpus():
    """A corpus only the parser rejects: one token has no head."""
    doc = make_corpus(30, seed=3)
    doc.sentences[5].tokens[1].head = None
    return doc


def test_a_parser_error_from_the_child_keeps_its_message(two_cpus):
    with pytest.raises(DataError) as caught:
        train_pipeline(_headless_corpus(), epochs=1)
    assert len(two_cpus) == 1
    assert str(caught.value) == "sentence synth-6: token 2 has no head"


def test_the_tagger_error_wins_over_the_parser_error(two_cpus):
    doc = _headless_corpus()
    doc.sentences[9].tokens[0].upos = None
    with pytest.raises(DataError, match="^sentence synth-10: token 1 .* has no gold upos$"):
        train_pipeline(doc, epochs=1)
