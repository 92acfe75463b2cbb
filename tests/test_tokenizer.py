"""Tokenizer and sentence splitter behavior."""

import random

import pytest
from oracles import reference_tokenize

from udbridge.conllu import parse_conllu, serialize_conllu
from udbridge.errors import DataError
from udbridge.tokenizer import TokenizerConfig, _split_chunk, tokenize


def forms(doc):
    return [[t.form for t in s.tokens] for s in doc.sentences]


def test_basic_sentence():
    doc = tokenize("De man sjocht.")
    assert forms(doc) == [["De", "man", "sjocht", "."]]
    sent = doc.sentences[0]
    assert sent.tokens[2].misc == "SpaceAfter=No"
    assert sent.tokens[3].misc == "_"
    assert sent.text() == "De man sjocht."


def test_split_requires_uppercase_continuation():
    doc = tokenize("Hy rint. Sy sjocht.")
    assert forms(doc) == [["Hy", "rint", "."], ["Sy", "sjocht", "."]]
    doc = tokenize("hy rint. dan sliept er.")
    assert len(doc.sentences) == 1


def test_abbreviation_keeps_period_and_sentence():
    cfg = TokenizerConfig(abbreviations={"bgl.", "s."})
    doc = tokenize("Hy komt bgl. moarn wer.", cfg)
    assert forms(doc) == [["Hy", "komt", "bgl.", "moarn", "wer", "."]]
    # same text without the abbreviation list: the period splits off,
    # though the sentence only ends if an uppercase letter follows
    doc = tokenize("Hy komt bgl. Moarn wer.", TokenizerConfig())
    assert forms(doc) == [["Hy", "komt", "bgl", "."], ["Moarn", "wer", "."]]


def test_abbreviations_must_end_with_period():
    with pytest.raises(DataError):
        TokenizerConfig(abbreviations={"bgl"})


def test_quotes_and_brackets_are_peeled():
    doc = tokenize("«Goeie», sei er (earlik).")
    assert forms(doc) == [
        ["«", "Goeie", "»", ",", "sei", "er", "(", "earlik", ")", "."]
    ]


def test_ellipsis_and_period_runs():
    doc = tokenize("Ja… No.")
    assert forms(doc) == [["Ja", "…"], ["No", "."]]
    doc = tokenize("Wachtsje... Dan.")
    assert forms(doc) == [["Wachtsje", "..."], ["Dan", "."]]


def test_double_terminators():
    doc = tokenize("Wat?! Echt.")
    assert forms(doc) == [["Wat", "?", "!"], ["Echt", "."]]


def test_interior_punctuation_stays_inside():
    doc = tokenize("It kosten 12.50 euro foar in knap-moaie fyts.")
    assert "12.50" in forms(doc)[0]
    assert "knap-moaie" in forms(doc)[0]


def test_every_nonspace_char_lands_in_exactly_one_token():
    rng = random.Random(7)
    alphabet = "ab ûê .,?!()«»…  AB\n\tc"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        doc = tokenize(text)
        produced = "".join(t.form for s in doc.sentences for t in s.tokens)
        assert produced == "".join(text.split())


def test_empty_and_whitespace_input():
    assert tokenize("").sentences == []
    assert tokenize(" \n\t ").sentences == []


def test_lone_period_chunk_is_a_terminator():
    doc = tokenize("sa . No")
    assert forms(doc) == [["sa", "."], ["No"]]


def _seeded_texts():
    """3,000 seeded (text, config) pairs over Unicode separators, period runs,
    ellipses and abbreviations ("..." among them), under three configs."""
    rng = random.Random(22)
    separators = " \n\t\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000"
    pieces = ["a", "Ab", "bgl", "s", "É", "ß", "1", ".", "..", "...", ",", "?", "!",
              "…", "(", ")", "«", "»", "'", "-", "\u200b", "\xad"]
    configs = [
        TokenizerConfig(),
        TokenizerConfig(abbreviations={"bgl.", "s.", "Ab.", "a..", "(s.", "..."}),
        TokenizerConfig(punctuation=set(".,!"), terminators={"!", "…"}),
    ]
    for _ in range(3000):
        parts = []
        for _ in range(rng.randint(0, 14)):
            pool = separators if rng.random() < 0.3 else pieces
            parts.append(rng.choice(pool))
        text = "".join(parts)
        yield text, rng.choice(configs)


def test_tokenize_matches_the_character_scanning_reference():
    """Chunking by str.split() and peeling plain strings gives the same
    Document as scanning characters and comparing offsets: the same forms,
    SpaceAfter and sentence breaks, on Unicode separators, period runs,
    ellipses and abbreviations."""
    for text, cfg in _seeded_texts():
        assert tokenize(text, cfg) == reference_tokenize(text, cfg), repr(text)


def test_the_text_comment_is_the_rebuilt_text_and_reads_back():
    """The tokenizer writes `# text` as the chunks joined by one space; it
    must be what Sentence.text() rebuilds, and the written file must read
    back as the same document."""
    for text, cfg in _seeded_texts():
        doc = tokenize(text, cfg)
        for sent in doc.sentences:
            assert dict(sent.comments)["text"] == sent.text(), repr(text)
        assert parse_conllu(serialize_conllu(doc)) == doc, repr(text)


def test_a_chunk_without_edge_punctuation_is_the_token_that_peeling_gives():
    """tokenize keeps such a chunk whole without peeling it."""
    checked = 0
    for text, cfg in _seeded_texts():
        for chunk in text.split():
            if chunk[0] not in cfg.punctuation and chunk[-1] not in cfg.punctuation:
                assert _split_chunk(chunk, cfg) == [chunk], (chunk, cfg)
                checked += 1
    assert checked > 1000
