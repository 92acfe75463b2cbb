"""Exact text of every TSV writer that goes through util.tsv.

Each expected string is the whole output, final newline and blank lines
included, which a comparison of splitlines() would not see.
"""

from udbridge.conllu import parse_conllu, serialize_tsv
from udbridge.evaluation import EvalReport, FoldSummary, cv_summary_tsv
from udbridge.pipeline import EvalSetting
from udbridge.projection import ProcedureComparison
from udbridge.stats import genre_table_from_counts, report_tsv
from udbridge.translate import LexiconCache
from udbridge.util import tsv

MWT_FIXTURE = """\
# sent_id = mwt-1
1-2\toant'e\t_\t_\t_\t_\t_\t_\t_\t_
1\toant\toant\tADP\t_\t_\t3\tcase\t_\t_
2\tde\tde\tDET\t_\t_\t3\tdet\t_\t_
3\tdyk\tdyk\tNOUN\t_\t_\t0\troot\t_\tSpaceAfter=No
4\t.\t.\tPUNCT\t_\t_\t3\tpunct\t_\t_
"""

TSV_HEAD = "doc_id\tsent_id\ttoken_id\tform\tlemma\tupos\txpos\tfeats\thead\tdeprel\n"


def test_tsv_ends_every_row_with_a_newline_and_writes_an_empty_row_blank():
    assert tsv([]) == ""
    assert tsv([("a", 1, 2.5), (), [None]]) == "a\t1\t2.5\n\nNone\n"


def test_serialize_tsv_text_without_and_with_a_doc_id():
    doc = parse_conllu(MWT_FIXTURE)
    assert serialize_tsv(doc) == TSV_HEAD + (
        "\tmwt-1\t1\toant\toant\tADP\t_\t_\t3\tcase\n"
        "\tmwt-1\t2\tde\tde\tDET\t_\t_\t3\tdet\n"
        "\tmwt-1\t3\tdyk\tdyk\tNOUN\t_\t_\t0\troot\n"
        "\tmwt-1\t4\t.\t.\tPUNCT\t_\t_\t3\tpunct\n"
    )
    doc.metadata["doc_id"] = "docA"
    assert serialize_tsv(doc) == TSV_HEAD + (
        "docA\tmwt-1\t1\toant\toant\tADP\t_\t_\t3\tcase\n"
        "docA\tmwt-1\t2\tde\tde\tDET\t_\t_\t3\tdet\n"
        "docA\tmwt-1\t3\tdyk\tdyk\tNOUN\t_\t_\t0\troot\n"
        "docA\tmwt-1\t4\t.\t.\tPUNCT\t_\t_\t3\tpunct\n"
    )


def test_eval_report_tsv_text_leaves_a_none_metric_empty():
    report = EvalReport(EvalSetting.GOLD_TOK, 4, 4, 4, 1, 1, 1,
                        upos=97.2, xpos=80.0, uas=100.0, las=66.7)
    assert report.to_tsv() == (
        "metric\tvalue\nf1_words\t\nf1_sents\t\nupos\t97.2\nxpos\t80.0\n"
        "ufeats\t\nalltags\t\nlemma\t\nuas\t100.0\nlas\t66.7\n"
    )


def test_cv_summary_tsv_text():
    summaries = {
        EvalSetting.GOLD_TOK: FoldSummary(
            EvalSetting.GOLD_TOK, {"upos": 91.2, "uas": 80.0}, {"upos": 1.5, "uas": 0.0}),
        EvalSetting.RAW_TEXT: FoldSummary(
            EvalSetting.RAW_TEXT, {"f1_words": 99.1, "upos": 88.0}, {"f1_words": 0.4, "upos": 2.3}),
    }
    assert cv_summary_tsv(summaries) == (
        "metric\tgoldtok_mean\tgoldtok_sd\traw_mean\traw_sd\n"
        "f1_words\t\t\t99.1\t0.4\n"
        "upos\t91.2\t1.5\t88.0\t2.3\n"
        "uas\t80.0\t0.0\t\t\n"
    )


def test_procedure_comparison_tsv_text_keeps_its_blank_separator_line():
    comparison = ProcedureComparison(
        rows=[("direct", 40, 50, 80.0), ("pivot", 35, 50, 70.0)],
        pairwise=[("direct", "pivot", 0.3567042)],
    )
    assert comparison.to_tsv() == (
        "procedure\tcorrect\ttotal\tpercent\ndirect\t40\t50\t80.0\npivot\t35\t50\t70.0\n"
        "\nbetter\tworse\tfisher_p\ndirect\tpivot\t0.3567042\n"
    )
    alone = ProcedureComparison(rows=[("direct", 40, 50, 80.0)])
    assert alone.to_tsv() == (
        "procedure\tcorrect\ttotal\tpercent\ndirect\t40\t50\t80.0\n\nbetter\tworse\tfisher_p\n"
    )


def test_genre_table_tsv_text():
    table = genre_table_from_counts([
        ("news", 8737, 7998, 582),
        ("science", 2293, 2069, 107),
        ("novels", 17176, 14272, 1446),
        ("museum", 9275, 8335, 486),
        ("wikipedia", 13780, 12040, 505),
    ])
    assert table.to_tsv() == (
        "genre\ttokens\ttokens_pct\twords\twords_pct\tsentences\tsentences_pct\n"
        "news\t8737\t17\t7998\t18\t582\t19\n"
        "science\t2293\t4\t2069\t5\t107\t3\n"
        "novels\t17176\t34\t14272\t32\t1446\t46\n"
        "museum\t9275\t18\t8335\t19\t486\t16\n"
        "wikipedia\t13780\t27\t12040\t27\t505\t16\n"
        "total\t51261\t100\t44714\t100\t3126\t100\n"
    )


FREQ = parse_conllu("""\
1\tman\tman\tNOUN\t_\t_\t0\troot\t_\t_
2\thûs\thûs\tNOUN\t_\t_\t1\tobj\t_\t_
3\thûs\thûs\tNOUN\t_\t_\t1\tobj\t_\t_
4\trint\trinne\tVERB\t_\t_\t1\tdep\t_\t_
5\tde\tde\tDET\t_\t_\t1\tdet\t_\t_
6\tit\tit\tDET\t_\t_\t1\tdet\t_\t_
7\tx\t_\t_\t_\t_\t1\tdep\t_\t_
""")


def test_report_tsv_text():
    assert report_tsv(FREQ, "upos") == "upos\tcount\nNOUN\t3\nDET\t2\nVERB\t1\n"
    assert report_tsv(FREQ, "top", top_n=2) == (
        "upos\trank\tform\tcount\nDET\t1\tde\t1\nDET\t2\tit\t1\n"
        "NOUN\t1\thûs\t2\nNOUN\t2\tman\t1\nVERB\t1\trint\t1\n"
    )
    assert report_tsv(FREQ, "cooc", upos_filter="NOUN") == (
        "lemma_a\tlemma_b\tweight\nhûs\tman\t1\n"
    )
    assert report_tsv(FREQ, "cooc", upos_filter="NOUN", min_weight=2) == (
        "lemma_a\tlemma_b\tweight\n"
    )


def test_lexicon_cache_saves_an_empty_file_and_sorted_rows(tmp_path):
    path = tmp_path / "cache.tsv"
    LexiconCache(str(path)).save()
    assert path.read_bytes() == b""
    cache = LexiconCache(str(path))
    cache.store("man", "Mann")
    cache.store("hûs", "huis")
    cache.save()
    assert path.read_text(encoding="utf-8") == "hûs\thuis\nman\tMann\n"
