"""A loaded model holds only values that fit the CoNLL-U column each is
written to, and what udbridge writes as CoNLL-U reads back equal."""

import io
import json
import re

import pytest
from synth import corpus_text, make_bitext, make_corpus, pivot_lexicon, strip_annotations

from udbridge.aligner import SentencePair, train_aligner, viterbi_align
from udbridge.cli import main
from udbridge.conllu import UPOS_TAGS, fits_column, parse_conllu, serialize_conllu
from udbridge.errors import DataError
from udbridge.lemmatizer import EditScript, LemmaRules
from udbridge.pipeline import EvalSetting, PipelineModel, annotate, train_pipeline
from udbridge.projection import project_direct, project_via_alignment, project_via_pivot
from udbridge.translate import StaticLexiconBackend, TranslatorClient

# ends in a lone "_" token, whose lemma is "_"
TEXT = "De man sjocht it hûs. Jan fynt 12 x-beamen yn Ljouwert. Hy skriuwt _ ."


@pytest.fixture(scope="module")
def model() -> PipelineModel:
    return train_pipeline(make_corpus(60, seed=1), epochs=2)


@pytest.fixture(scope="module")
def payload(model, tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("gate") / "model.json"
    model.save(str(path))
    return json.loads(path.read_text(encoding="utf-8"))


def annotate_exit(payload: dict, tmp_path) -> tuple[int, str, str]:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = main(["annotate", "--model", str(path)], stdin=io.StringIO(TEXT), stdout=out,
                stderr=err)
    return code, out.getvalue(), err.getvalue()


def rename_class(payload: dict, attr: str, new: str) -> dict:
    """A copy of `payload` whose most used tagger `attr` class is called
    `new`, in the class list and in every weight row."""
    bad = json.loads(json.dumps(payload))
    rows = bad["tagger"]["weights"][attr].values()
    classes = bad["tagger"]["classes"][attr]
    old = max(classes, key=lambda cls: sum(cls in row for row in rows))
    classes[classes.index(old)] = new
    for row in rows:
        if old in row:
            row[new] = row.pop(old)
    return bad


# -------------------------------------------------------- the column rule


@pytest.mark.parametrize("column, value, fits", [
    ("UPOS", "NOUN", True),
    ("UPOS", "FOO", False),
    ("UPOS", "_", False),
    ("XPOS", "_", True),
    ("XPOS", "n sg", True),
    ("XPOS", "", False),
    ("XPOS", "a\tb", False),
    ("XPOS", "x\ny", False),
    ("XPOS", "x\ry", False),
    ("FEATS", "_", True),
    ("FEATS", "Case=Nom|Number=Sing", True),
    ("FEATS", "Case", False),
    ("FEATS", "Case=a|Case=b", False),
    ("FEATS", "Case=a\tb", False),
    ("LEMMA", "hûs", True),
    ("DEPREL", "", False),
])
def test_fits_column(column, value, fits):
    assert fits_column(column, value) is fits


def test_reader_refuses_the_upos_tags_the_gate_refuses():
    row = "1\twurd\twurd\t{}\t_\t_\t0\troot\t_\t_\n"
    for tag in sorted(UPOS_TAGS) + ["FOO", "noun"]:
        if fits_column("UPOS", tag):
            assert parse_conllu(row.format(tag)).sentences[0].tokens[0].upos == tag
        else:
            with pytest.raises(DataError, match=f"unknown UPOS tag {tag!r}"):
                parse_conllu(row.format(tag))


# --------------------------------------------------------- the model gate


@pytest.mark.parametrize("attr, label", [
    ("upos", "FOO"),
    ("upos", "_"),
    ("xpos", ""),
    ("xpos", "a\tb"),
    ("xpos", "x\ny"),
    ("feats", "Case=a\tb"),
])
def test_tagger_class_that_cannot_be_written_is_refused(payload, tmp_path, attr, label):
    # Each of these used to load; annotate then exited 0 and wrote a column
    # that parse_conllu refuses (or, for upos "_", reads as unset).
    bad = rename_class(payload, attr, label)
    with pytest.raises(DataError, match=f"malformed model: tagger {attr} class"):
        PipelineModel.from_bytes(json.dumps(bad).encode("utf-8"), "bad.json")
    code, out, err = annotate_exit(bad, tmp_path)
    assert (code, out) == (2, "") and "malformed model" in err


def test_unset_xpos_and_feats_classes_still_load(payload, tmp_path):
    assert "_" in payload["tagger"]["classes"]["feats"]
    code, out, _ = annotate_exit(rename_class(payload, "xpos", "_"), tmp_path)
    assert code == 0
    assert any(tok.xpos is None for tok in parse_conllu(out).tokens())
    assert serialize_conllu(parse_conllu(out)) == out


def test_lemma_rule_appending_a_tab_is_refused(payload, tmp_path):
    bad = json.loads(json.dumps(payload))
    bad["lemmatizer"][0][3] += "\tz"
    with pytest.raises(DataError, match="malformed model: lemmatizer rule"):
        PipelineModel.from_bytes(json.dumps(bad).encode("utf-8"), "bad.json")
    code, _, err = annotate_exit(bad, tmp_path)
    assert code == 2 and "malformed model" in err


def test_parser_classes_need_shift_and_an_arc_move(payload):
    for classes in (["shift"], ["left:dep", "right:dep"]):
        bad = json.loads(json.dumps(payload))
        bad["parser"]["classes"] = classes
        with pytest.raises(DataError, match="malformed model: parser classes need 'shift'"):
            PipelineModel.from_bytes(json.dumps(bad).encode("utf-8"), "bad.json")


@pytest.mark.parametrize("key, value, message", [
    ("root_label", "_", "parser root_label '_' is empty or has whitespace"),
    ("classes", "left:_", "parser class 'left:_' is not shift, left:<label> or right:<label>"),
])
def test_a_parser_label_that_reads_back_as_unset_is_refused(payload, tmp_path, key, value,
                                                             message):
    # Each used to load, and annotate wrote a "_" DEPREL that CoNLL-U reads
    # as unset.
    bad = json.loads(json.dumps(payload))
    if key == "classes":
        value = sorted(bad["parser"]["classes"] + [value])
    bad["parser"][key] = value
    with pytest.raises(DataError, match=f"malformed model: {re.escape(message)}"):
        PipelineModel.from_bytes(json.dumps(bad).encode("utf-8"), "bad.json")
    code, out, err = annotate_exit(bad, tmp_path)
    assert (code, out) == (2, "") and "malformed model" in err


@pytest.mark.parametrize("bad_weights", [
    # NaN in the parser's bias row and an infinity in the tagger's UPOS bias
    # row: such a model used to load and tag every token ADJ
    {("parser",): float("nan"), ("tagger", "upos"): float("inf")},
    {("parser",): float("nan")},
    {("tagger", "feats"): float("-inf")},
    {("parser",): 10**400},  # an int beyond the float range
], ids=["nan-and-inf", "parser-nan", "tagger-minus-inf", "huge-int"])
def test_a_weight_that_is_not_finite_is_refused(payload, tmp_path, bad_weights):
    bad = json.loads(json.dumps(payload))
    for path, value in bad_weights.items():
        weights = bad[path[0]]["weights"]
        row = (weights[path[1]] if len(path) > 1 else weights)["bias"]
        row[next(iter(row))] = value
    message = r"malformed model: weight .* of feature 'bias' is not finite"
    with pytest.raises(DataError, match=message):
        PipelineModel.from_bytes(json.dumps(bad).encode("utf-8"), "bad.json")
    code, out, err = annotate_exit(bad, tmp_path)
    assert (code, out) == (2, "") and "is not finite" in err


# ------------------------------------------------------------ empty lemmas


def test_a_script_that_would_empty_the_form_does_not_fit():
    assert EditScript(1, "").apply("b") is None
    assert EditScript(1, "x").apply("b") == "x"
    rules = LemmaRules()
    rules.add("ab", "NOUN", "a")
    assert rules.predict("b", "NOUN") == "b"
    assert rules.predict("cb", "NOUN") == "c"


# ------------------------------------------------------------- read-back


def read_back(doc):
    """`doc` written and read again, and `doc` as CoNLL-U defines it: a "_"
    lemma, such as the identity lemma of a lone "_" token, is unset."""
    expected = doc.copy()
    for tok in expected.tokens():
        if tok.lemma == "_":
            tok.lemma = None
    return parse_conllu(serialize_conllu(doc)), expected


def test_raw_annotation_reads_back(model):
    text = corpus_text(make_corpus(30, seed=41)) + "\n" + TEXT
    doc = annotate(text, model, EvalSetting.RAW_TEXT)
    underscore = [t for t in doc.tokens() if t.form == "_"]
    assert underscore and all(t.lemma == "_" for t in underscore)
    back, expected = read_back(doc)
    assert back == expected
    assert all(t.lemma is None for t in back.tokens() if t.form == "_")


@pytest.mark.parametrize("setting", [EvalSetting.GOLD_TOK, EvalSetting.GOLD_TOK_MORPH])
def test_gold_token_annotation_reads_back(model, setting):
    gold = make_corpus(30, seed=42, genres=("news", "fiction"))
    source = strip_annotations(gold) if setting is EvalSetting.GOLD_TOK else gold
    back, expected = read_back(annotate(source, model, setting))
    assert back == expected


def test_projections_read_back(model):
    gold = make_corpus(30, seed=43)
    target = strip_annotations(gold)
    lexicon = pivot_lexicon()
    pivot = TranslatorClient(StaticLexiconBackend({v: k for k, v in lexicon.items()}))
    # the target side in the pivot language, aligned to the annotated source
    pivot_target = target.copy()
    for position, sent in enumerate(pivot_target.sentences, start=1):
        for tok in sent.tokens:
            tok.form = lexicon[tok.form]
        sent.fill_header(position)
    bitext = [SentencePair(s, t) for s, t in make_bitext(gold)]
    table = train_aligner(bitext)
    source = annotate(target, model, EvalSetting.GOLD_TOK)
    projected = [
        project_direct(target, model),
        project_via_pivot(pivot_target, model, pivot),
        project_via_alignment(source, pivot_target, [viterbi_align(table, p) for p in bitext]),
    ]
    for result in projected:
        back, expected = read_back(result.document)
        assert back == expected
