"""CoNLL-U reader/writer tests: hand fixtures, malformed inputs, round trips."""

import random

import pytest
from synth import malformed_fixtures, random_document, random_sentence

from udbridge.conllu import (
    Document,
    MultiwordRange,
    Sentence,
    Token,
    parse_conllu,
    serialize_conllu,
    serialize_tsv,
)
from udbridge.errors import ConlluParseError, ValidationError

FIXTURE = """\
# sent_id = fr-1
# text = Dêr is in hûs.
# genre = news
1\tDêr\tdêr\tADV\tbw\t_\t2\tadvmod\t_\t_
2\tis\twêze\tVERB\tww\tNumber=Sing|Person=3\t0\troot\t_\t_
3\tin\tin\tDET\tlw\tDefinite=Ind\t4\tdet\t_\t_
4\thûs\thûs\tNOUN\tn\tGender=Neut|Number=Sing\t2\tnsubj\t_\tSpaceAfter=No
5\t.\t.\tPUNCT\tlet\t_\t2\tpunct\t_\t_
"""


def test_parse_fixture_fields():
    doc = parse_conllu(FIXTURE)
    assert len(doc.sentences) == 1
    sent = doc.sentences[0]
    assert sent.sent_id == "fr-1"
    assert sent.genre == "news"
    assert [t.form for t in sent.tokens] == ["Dêr", "is", "in", "hûs", "."]
    assert sent.tokens[1].feats == {"Number": "Sing", "Person": "3"}
    assert sent.tokens[1].head == 0
    assert sent.tokens[3].misc == "SpaceAfter=No"
    assert sent.text() == "Dêr is in hûs."


def test_serialize_is_fixpoint_after_one_pass():
    once = serialize_conllu(parse_conllu(FIXTURE))
    assert serialize_conllu(parse_conllu(once)) == once


def test_feats_keys_are_sorted_on_output():
    text = FIXTURE.replace("Gender=Neut|Number=Sing", "Number=Sing|Gender=Neut")
    out = serialize_conllu(parse_conllu(text))
    assert "Gender=Neut|Number=Sing" in out


def test_text_comment_is_recomputed_not_trusted():
    doc = parse_conllu(FIXTURE.replace("# text = Dêr is in hûs.", "# text = wrong"))
    assert doc.sentences[0].text() == "Dêr is in hûs."
    assert ("text", "Dêr is in hûs.") in doc.sentences[0].comments


def test_sent_id_synthesized_when_missing():
    block = "\n".join(FIXTURE.splitlines()[1:]) + "\n"
    doc = parse_conllu(block)
    assert doc.sentences[0].sent_id == "1"


def test_unknown_comments_kept_verbatim():
    text = "# newpar id = 7\n" + FIXTURE
    doc = parse_conllu(text)
    assert (None, "# newpar id = 7") in doc.sentences[0].comments
    assert "# newpar id = 7" in serialize_conllu(doc)


MWT_FIXTURE = """\
# sent_id = mwt-1
1-2\toant'e\t_\t_\t_\t_\t_\t_\t_\t_
1\toant\toant\tADP\t_\t_\t3\tcase\t_\t_
2\tde\tde\tDET\t_\t_\t3\tdet\t_\t_
3\tdyk\tdyk\tNOUN\t_\t_\t0\troot\t_\tSpaceAfter=No
4\t.\t.\tPUNCT\t_\t_\t3\tpunct\t_\t_
"""


def test_multiword_range_round_trip_and_text():
    doc = parse_conllu(MWT_FIXTURE)
    sent = doc.sentences[0]
    assert sent.ranges == [MultiwordRange(1, 2, "oant'e", "_")]
    assert sent.text() == "oant'e dyk."
    out = serialize_conllu(doc)
    assert "1-2\toant'e" in out
    assert parse_conllu(out) == doc


@pytest.mark.parametrize("name,text", malformed_fixtures())
def test_malformed_input_raises_diagnostic(name, text):
    with pytest.raises((ConlluParseError, ValidationError)) as exc_info:
        parse_conllu(text)
    assert str(exc_info.value)


def test_diagnostics_carry_line_numbers():
    bad = FIXTURE.replace("2\tis", "9\tis")  # the token line is file line 5
    with pytest.raises(ValidationError) as exc_info:
        parse_conllu(bad)
    assert "line 5" in str(exc_info.value)


@pytest.mark.parametrize("lines", [
    ["1\ta\rb\t_\tX\t_\t_\t0\troot\t_\t_"],
    ["# text = a\rb", "1\tab\t_\tX\t_\t_\t0\troot\t_\t_"],
])
def test_a_carriage_return_inside_a_line_is_refused(lines):
    # read from a file with universal newlines, "\r" would end the line
    text = "\n".join(["# sent_id = s1", *lines]) + "\n\n"
    with pytest.raises(ConlluParseError, match="^line 2: carriage return inside the line$"):
        parse_conllu(text)
    # a trailing "\r", as in a CRLF file, is stripped
    assert parse_conllu(text.replace("a\rb", "ab").replace("\n", "\r\n"))


def test_the_first_bad_line_in_file_order_names_the_error():
    good = "1\ta\t_\tX\t_\t_\t0\troot\t_\t_"
    eleven = good + "\t_"
    lines = ["# sent_id = s1", "# text = a b", eleven, "2\tb\t_\tX\t_\t_\t1\tdep\t_\t_", "# a\rb"]
    with pytest.raises(ConlluParseError, match="^line 3: expected 10 tab-separated columns, got 11$"):
        parse_conllu("\n".join(lines) + "\n")
    # the carriage return wins when it comes first
    lines[2], lines[4] = "1\ta\rb\t_\tX\t_\t_\t0\troot\t_\t_", eleven
    with pytest.raises(ConlluParseError, match="^line 3: carriage return inside the line$"):
        parse_conllu("\n".join(lines) + "\n")
    # a whole-sentence check of one block comes before any line of the next
    text = "\n".join(["# sent_id = s1", good.replace("0\troot", "5\tdep"), "", eleven]) + "\n"
    with pytest.raises(ValidationError, match="^line 2: token 1 has head 5 outside 0..1$"):
        parse_conllu(text)


def test_round_trip_identity_on_random_documents():
    rng = random.Random(411)
    for case in range(200):
        doc = random_document(rng, f"rt{case}")
        assert parse_conllu(serialize_conllu(doc)) == doc


def test_a_defaulted_sent_id_that_repeats_a_given_one_is_refused_on_reading():
    text = "# sent_id = 2\n1\ta\t_\t_\t_\t_\t_\t_\t_\t_\n\n1\tb\t_\t_\t_\t_\t_\t_\t_\t_\n"
    with pytest.raises(
        ValidationError,
        match="^sentence 2 has no sent_id, and its default '2' is the sent_id of sentence 1$",
    ):
        parse_conllu(text)


@pytest.mark.parametrize("write", [serialize_conllu, serialize_tsv])
def test_a_defaulted_sent_id_that_repeats_a_given_one_is_refused_on_writing(write):
    given_first = Document([
        Sentence([Token(1, "a")], comments=[("sent_id", "2")]),
        Sentence([Token(1, "b")]),
    ])
    with pytest.raises(ValidationError, match="^sentence 2 has no sent_id, and its default '2'"
                                              " is the sent_id of sentence 1$"):
        write(given_first)
    given_last = Document([
        Sentence([Token(1, "a")]),
        Sentence([Token(1, "b")], comments=[("sent_id", "1")]),
    ])
    with pytest.raises(ValidationError, match="^sentence 1 has no sent_id, and its default '1'"
                                              " is the sent_id of sentence 2$"):
        write(given_last)


def test_sentences_without_sent_ids_are_written_under_their_positions():
    doc = Document([
        Sentence([Token(1, "a")]),
        Sentence([Token(1, "b")], comments=[("sent_id", "5")]),
        Sentence([Token(1, "c")]),
    ])
    out = serialize_conllu(doc)
    assert [line for line in out.splitlines() if line.startswith("# sent_id")] == [
        "# sent_id = 1", "# sent_id = 5", "# sent_id = 3",
    ]
    assert [s.sent_id for s in parse_conllu(out).sentences] == ["1", "5", "3"]


def _text_from_units(sent):
    """Sentence.text() as its general path builds it, from surface_units()."""
    parts = []
    for form, _, space_after in sent.surface_units():
        parts += (form, " " if space_after else "")
    return "".join(parts[:-1])


_MISCS = ["_", "SpaceAfter=No", "SpaceAfter=No|Lang=fy", "Lang=fy|SpaceAfter=No", "Lang=fy",
          "SpaceAfter=Yes", "_|SpaceAfter=No"]


def test_text_of_a_sentence_without_ranges_is_that_of_its_surface_units():
    rng = random.Random(26)
    for case in range(300):
        sent = random_sentence(rng, f"t{case}")
        for tok in sent.tokens:
            tok.misc = rng.choice(_MISCS)
        assert sent.text() == _text_from_units(sent)
        sent.ranges = []
        assert sent.text() == _text_from_units(sent)


@pytest.mark.parametrize("misc", _MISCS)
def test_space_after_reads_misc_as_its_split_items(misc):
    want = "SpaceAfter=No" not in misc.split("|")
    assert Token(1, "a", misc=misc).space_after() is want
    assert MultiwordRange(1, 2, "ab", misc).space_after() is want


def test_serialize_rejects_invalid_in_memory_document():
    doc = Document(
        sentences=[Sentence(tokens=[Token(id=1, form="a", head=5, deprel="dep")])]
    )
    with pytest.raises(ValidationError):
        serialize_conllu(doc)


def test_tsv_export_one_row_per_token():
    doc = parse_conllu(MWT_FIXTURE)
    doc.metadata["doc_id"] = "docA"
    lines = serialize_tsv(doc).splitlines()
    assert lines[0].split("\t") == [
        "doc_id", "sent_id", "token_id", "form", "lemma",
        "upos", "xpos", "feats", "head", "deprel",
    ]
    assert len(lines) == 5  # header + 4 tokens, range line is not a row
    assert lines[1].split("\t")[:4] == ["docA", "mwt-1", "1", "oant"]


def test_empty_input_gives_empty_document():
    assert parse_conllu("") == Document()
    assert parse_conllu("\n\n") == Document()


COLUMN_NAMES = ["ID", "FORM", "LEMMA", "UPOS", "XPOS", "FEATS", "HEAD", "DEPREL", "DEPS", "MISC"]


@pytest.mark.parametrize("column", range(10))
def test_an_empty_token_column_is_refused_by_name(column):
    cols = ["2", "man", "man", "NOUN", "n", "_", "0", "root", "_", "_"]
    cols[column] = ""
    text = "1\tDe\tde\tDET\tlw\t_\t2\tdet\t_\t_\n" + "\t".join(cols) + "\n"
    with pytest.raises(ConlluParseError, match=f"^line 2: empty {COLUMN_NAMES[column]} column$"):
        parse_conllu(text)


@pytest.mark.parametrize("column", range(10))
def test_an_empty_range_column_is_refused_by_name(column):
    cols = ["1-2", "oant'e", "_", "_", "_", "_", "_", "_", "_", "_"]
    cols[column] = ""
    text = MWT_FIXTURE.replace("1-2\toant'e\t_\t_\t_\t_\t_\t_\t_\t_", "\t".join(cols))
    assert text != MWT_FIXTURE
    with pytest.raises(ConlluParseError, match=f"empty {COLUMN_NAMES[column]} column$"):
        parse_conllu(text)
