import pytest

from synth import GENRES, make_corpus
from udbridge.conllu import Document, parse_conllu
from udbridge.errors import DataError
from udbridge.stats import (
    CoocEdge,
    cooccurrence,
    genre_distribution,
    genre_table_from_counts,
    report_tsv,
    split_by_genre,
    top_tokens_per_upos,
    upos_frequencies,
)

# Published corpus description this toolkit is checked against: raw counts
# per genre and the percentage columns printed alongside them.
GENRE_COUNTS = [
    ("news", 8737, 7998, 582),
    ("science", 2293, 2069, 107),
    ("novels", 17176, 14272, 1446),
    ("museum", 9275, 8335, 486),
    ("wikipedia", 13780, 12040, 505),
]
PUBLISHED_TOKENS_PCT = [17, 4, 34, 18, 27]
PUBLISHED_WORDS_PCT = [17, 5, 32, 19, 27]
PUBLISHED_SENTS_PCT = [19, 3, 46, 16, 16]


def sent(genre: str | None, *rows: str) -> str:
    head = [f"# genre = {genre}"] if genre else []
    return "\n".join(head + list(rows))


# ------------------------------------------------------------ genre table


def test_distribution_table_reproduces_published_counts():
    table = genre_table_from_counts(GENRE_COUNTS)
    assert table.total_tokens == 51261
    assert table.total_words == 44714
    assert table.total_sentences == 3126
    assert [r.tokens_pct for r in table.rows] == PUBLISHED_TOKENS_PCT
    assert [r.sentences_pct for r in table.rows] == PUBLISHED_SENTS_PCT


def test_distribution_words_column_known_discrepancy():
    # the published words percentage for news does not follow from the
    # published raw counts: 100*7998/44714 = 17.887 rounds to 18, not 17
    table = genre_table_from_counts(GENRE_COUNTS)
    computed = [r.words_pct for r in table.rows]
    assert computed == [18, 5, 32, 19, 27]
    mismatches = [
        (row.genre, got, want)
        for row, got, want in zip(table.rows, computed, PUBLISHED_WORDS_PCT)
        if got != want
    ]
    assert mismatches == [("news", 18, 17)]


def test_genre_table_tsv():
    lines = genre_table_from_counts(GENRE_COUNTS).to_tsv().splitlines()
    assert lines[0] == "genre\ttokens\ttokens_pct\twords\twords_pct\tsentences\tsentences_pct"
    assert lines[1] == "news\t8737\t17\t7998\t18\t582\t19"
    assert lines[-1] == "total\t51261\t100\t44714\t100\t3126\t100"
    assert len(lines) == 7


def test_genre_table_from_counts_validation():
    with pytest.raises(DataError, match="no genre rows"):
        genre_table_from_counts([])
    with pytest.raises(DataError, match="positive"):
        genre_table_from_counts([("empty", 0, 0, 0)])


def test_genre_distribution_counts_words_without_punct():
    news = parse_conllu(
        sent(
            None,
            "1\tde\t_\tDET\t_\t_\t2\tdet\t_\t_",
            "2\tman\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_",
            "3\trint\t_\tVERB\t_\t_\t0\troot\t_\t_",
            "4\t.\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_",
        )
        + "\n\n"
    )
    fiction = parse_conllu(
        sent(
            None,
            "1\twat\t_\tPRON\t_\t_\t0\troot\t_\t_",
            "2\t?\t_\tPUNCT\t_\t_\t1\tpunct\t_\t_",
        )
        + "\n\n"
    )
    table = genre_distribution([("news", news), ("fiction", fiction)])
    news_row, fiction_row = table.rows
    assert (news_row.tokens, news_row.words, news_row.sentences) == (4, 3, 1)
    assert (fiction_row.tokens, fiction_row.words, fiction_row.sentences) == (2, 1, 1)
    assert news_row.tokens_pct == 67 and fiction_row.tokens_pct == 33
    assert news_row.words_pct == 75 and fiction_row.words_pct == 25
    assert news_row.sentences_pct == 50


def test_split_by_genre_keeps_first_seen_order():
    doc = make_corpus(30, seed=2, genres=GENRES)
    groups = split_by_genre(doc)
    assert [g for g, _ in groups] == ["news", "fiction", "science"]
    assert all(len(part.sentences) == 10 for _, part in groups)
    # grouping reuses the sentence objects rather than copying
    assert groups[0][1].sentences[0] is doc.sentences[0]


def test_split_by_genre_default_bucket():
    doc = parse_conllu("1\twat\t_\tPRON\t_\t_\t0\troot\t_\t_\n")
    assert doc.sentences[0].genre is None
    groups = split_by_genre(doc)
    assert [g for g, _ in groups] == ["all"]


# ------------------------------------------------------------ frequencies


FREQ_ROWS = (
    "1\tman\tman\tNOUN\t_\t_\t0\troot\t_\t_",
    "2\thûs\thûs\tNOUN\t_\t_\t1\tobj\t_\t_",
    "3\thûs\thûs\tNOUN\t_\t_\t1\tobj\t_\t_",
    "4\trint\trinne\tVERB\t_\t_\t1\tdep\t_\t_",
    "5\tde\tde\tDET\t_\t_\t1\tdet\t_\t_",
    "6\tit\tit\tDET\t_\t_\t1\tdet\t_\t_",
    "7\tx\t_\t_\t_\t_\t1\tdep\t_\t_",
)


def test_upos_frequencies_ordering():
    doc = parse_conllu("\n".join(FREQ_ROWS) + "\n")
    assert upos_frequencies(doc) == [("NOUN", 3), ("DET", 2), ("VERB", 1)]


def test_top_tokens_per_upos():
    doc = parse_conllu("\n".join(FREQ_ROWS) + "\n")
    result = top_tokens_per_upos(doc, n=1)
    assert list(result) == ["DET", "NOUN", "VERB"]  # tags alphabetical
    assert result["NOUN"] == [("hûs", 2)]
    assert result["DET"] == [("de", 1)]  # count tie broken by form

    full = top_tokens_per_upos(doc, n=10)
    assert full["NOUN"] == [("hûs", 2), ("man", 1)]
    with pytest.raises(DataError, match=">= 1"):
        top_tokens_per_upos(doc, n=0)


# ----------------------------------------------------------- cooccurrence


def cooc_doc() -> Document:
    def noun(i: int, lemma: str) -> str:
        return f"{i}\t{lemma}\t{lemma}\tNOUN\t_\t_\t0\t{'root' if i == 1 else 'dep'}\t_\t_"

    blocks = [
        [noun(1, "a"), noun(2, "b"), noun(3, "c")],
        [noun(1, "a"), noun(2, "b"), noun(3, "b")],  # duplicate lemma, one pair
        [noun(1, "a"), noun(2, "b"), "3\trint\trinne\tVERB\t_\t_\t1\tdep\t_\t_"],
    ]
    return parse_conllu("\n\n".join("\n".join(b) for b in blocks) + "\n")


def test_cooccurrence_counts_pairs_once_per_sentence():
    edges = cooccurrence(cooc_doc(), "NOUN")
    assert edges == [
        CoocEdge("a", "b", 3),
        CoocEdge("a", "c", 1),
        CoocEdge("b", "c", 1),
    ]
    assert cooccurrence(cooc_doc(), "NOUN", min_weight=2) == [CoocEdge("a", "b", 3)]
    assert cooccurrence(cooc_doc(), "VERB") == []
    with pytest.raises(DataError, match="min_weight"):
        cooccurrence(cooc_doc(), "NOUN", min_weight=0)


def test_cooccurrence_skips_missing_lemmas():
    doc = cooc_doc()
    for s in doc.sentences:
        for t in s.tokens:
            if t.lemma == "b":
                t.lemma = None
    assert cooccurrence(doc, "NOUN") == [CoocEdge("a", "c", 1)]


# ------------------------------------------------------------- tsv shapes


def test_upos_freq_tsv():
    lines = report_tsv(parse_conllu("\n".join(FREQ_ROWS) + "\n"), "upos").splitlines()
    assert lines == ["upos\tcount", "NOUN\t3", "DET\t2", "VERB\t1"]


def test_top_tokens_tsv_has_rank_column():
    lines = report_tsv(parse_conllu("\n".join(FREQ_ROWS) + "\n"), "top", top_n=2).splitlines()
    assert lines[0] == "upos\trank\tform\tcount"
    assert "NOUN\t1\thûs\t2" in lines
    assert "NOUN\t2\tman\t1" in lines
    ranks = [int(l.split("\t")[1]) for l in lines[1:]]
    assert all(r in (1, 2) for r in ranks)


def test_cooc_edges_tsv():
    lines = report_tsv(cooc_doc(), "cooc", upos_filter="NOUN", min_weight=1).splitlines()
    assert lines[0] == "lemma_a\tlemma_b\tweight"
    assert lines[1] == "a\tb\t3"
    assert len(lines) == 4
