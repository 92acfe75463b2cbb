import os
import random
import statistics

import pytest

from oracles import brute_token_scores, fisher_exact_fraction
from synth import make_corpus, random_document
from udbridge.conllu import parse_conllu
from udbridge.errors import DataError
from udbridge.evaluation import (
    METRIC_ORDER,
    BootstrapResult,
    ContingencyTable2x2,
    bootstrap_median_compare,
    build_cv_plan,
    cross_validate,
    cv_summary_tsv,
    _flatten,
    evaluate,
    fisher_exact,
)
from udbridge.pipeline import EvalSetting, train_pipeline
from udbridge.util import round_half_up

UPOS_POOL = ["NOUN", "VERB", "DET", "ADP", "ADV", "PRON", "PROPN", "ADJ", "X"]


def doc_from(*rows: str):
    return parse_conllu("\n".join(rows) + "\n\n")


GOLD_ROWS = (
    "1\tde\t_\tDET\t_\t_\t2\tdet\t_\t_",
    "2\tman\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_",
    "3\trint\t_\tVERB\t_\t_\t0\troot\t_\t_",
    "4\t.\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_",
)


# ------------------------------------------------------------- hand scores


def test_uas_las_hand_case():
    gold = doc_from(*GOLD_ROWS)
    system = doc_from(
        "1\tde\t_\tDET\t_\t_\t3\tdet\t_\t_",        # wrong head
        "2\tman\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_",
        "3\trint\t_\tVERB\t_\t_\t0\troot\t_\t_",
        "4\t.\t_\tPUNCT\t_\t_\t3\tdep\t_\t_",        # right head, wrong label
    )
    report = evaluate(gold, system, EvalSetting.GOLD_TOK)
    assert report.uas == 75.0
    assert report.las == 50.0
    assert report.upos == 100.0
    assert report.f1_words is None and report.f1_sents is None


def test_unset_heads_never_count():
    gold = doc_from(*GOLD_ROWS)
    system = doc_from(
        "1\tde\t_\tDET\t_\t_\t_\tdet\t_\t_",
        "2\tman\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_",
        "3\trint\t_\tVERB\t_\t_\t0\troot\t_\t_",
        "4\t.\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_",
    )
    assert evaluate(gold, system, EvalSetting.GOLD_TOK).uas == 75.0
    # and in the other direction: gold without heads
    bare = doc_from(
        "1\tde\t_\tDET\t_\t_\t_\t_\t_\t_",
        "2\tman\t_\tNOUN\t_\t_\t_\t_\t_\t_",
        "3\trint\t_\tVERB\t_\t_\t_\t_\t_\t_",
        "4\t.\t_\tPUNCT\t_\t_\t_\t_\t_\t_",
    )
    assert evaluate(bare, doc_from(*GOLD_ROWS), EvalSetting.GOLD_TOK).uas == 0.0


def test_gold_tok_morph_reports_only_attachment():
    gold = doc_from(*GOLD_ROWS)
    report = evaluate(gold, doc_from(*GOLD_ROWS), EvalSetting.GOLD_TOK_MORPH)
    assert report.uas == 100.0 and report.las == 100.0
    for name in ("upos", "xpos", "ufeats", "alltags", "lemma", "f1_words", "f1_sents"):
        assert getattr(report, name) is None


def test_report_tsv_shape():
    gold = doc_from(*GOLD_ROWS)
    report = evaluate(gold, doc_from(*GOLD_ROWS), EvalSetting.GOLD_TOK)
    lines = report.to_tsv().splitlines()
    assert lines[0] == "metric\tvalue"
    assert len(lines) == 1 + len(METRIC_ORDER)
    assert "f1_words\t" in lines[1]  # None renders as empty cell
    assert "uas\t100.0" in lines
    assert report.metrics()["las"] == 100.0


# ------------------------------------------------------- differing tokens


def test_word_f1_with_split_difference():
    gold = doc_from(*GOLD_ROWS)
    system = doc_from(
        "1\tde\t_\tDET\t_\t_\t2\tdet\t_\t_",
        "2\tman\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_",
        "3\trint.\t_\tVERB\t_\t_\t0\troot\t_\t_",
    )
    report = evaluate(gold, system, EvalSetting.RAW_TEXT)
    # 2 of 4 gold and 3 system spans agree: F1 = 200*2/7
    assert report.f1_words == 57.1
    assert report.f1_sents == 100.0
    assert report.matched_tokens == 2


def test_sentence_f1_with_split_difference():
    gold = doc_from(*GOLD_ROWS)
    system = doc_from(
        "1\tde\t_\tDET\t_\t_\t2\tdet\t_\t_",
        "2\tman\t_\tNOUN\t_\t_\t0\troot\t_\t_",
        "",
        "1\trint\t_\tVERB\t_\t_\t0\troot\t_\t_",
        "2\t.\t_\tPUNCT\t_\t_\t1\tpunct\t_\t_",
    )
    report = evaluate(gold, system, EvalSetting.RAW_TEXT)
    assert report.f1_sents == 0.0
    assert report.f1_words == 100.0


def test_heads_map_through_token_matching():
    gold = doc_from(
        "1\ta\t_\tX\t_\t_\t2\tdep\t_\t_",
        "2\tb\t_\tX\t_\t_\t0\troot\t_\t_",
        "3\tc\t_\tX\t_\t_\t2\tdep\t_\t_",
    )
    system = doc_from(
        "1\ta\t_\tX\t_\t_\t2\tdep\t_\t_",
        "2\tbc\t_\tX\t_\t_\t0\troot\t_\t_",
    )
    report = evaluate(gold, system, EvalSetting.RAW_TEXT)
    # only "a" matches; its head is an unmatched token on both sides
    assert report.matched_tokens == 1
    assert report.f1_words == 40.0
    assert report.uas == 0.0


def test_mwt_surface_shares_spans():
    mwt = (
        "1-2\toant'e\t_\t_\t_\t_\t_\t_\t_\t_",
        "1\toant\t_\tADP\t_\t_\t3\tcase\t_\t_",
        "2\te\t_\tDET\t_\t_\t3\tdet\t_\t_",
        "3\thûs\t_\tNOUN\t_\t_\t0\troot\t_\t_",
    )
    gold = doc_from(*mwt)
    report = evaluate(gold, doc_from(*mwt), EvalSetting.RAW_TEXT)
    assert report.f1_words == 100.0 and report.uas == 100.0

    flat = doc_from(
        "1\toant'e\t_\tADP\t_\t_\t2\tcase\t_\t_",
        "2\thûs\t_\tNOUN\t_\t_\t0\troot\t_\t_",
    )
    split_vs_flat = evaluate(gold, flat, EvalSetting.RAW_TEXT)
    # both range tokens carry the surface-form span; the flat token can
    # only match the first of them
    assert split_vs_flat.matched_tokens == 2
    assert split_vs_flat.f1_words == 80.0


def test_flattened_spans_strip_the_whitespace_of_char_spans():
    rng = random.Random(41)
    for i in range(40):
        doc = random_document(rng, f"f{i}")
        words, _, chars = _flatten(doc)
        tokens = [(sent.text(), tok) for sent in doc.sentences for tok in sent.tokens]
        assert len(words) == len(tokens)
        for word, (text, tok) in zip(words, tokens):
            start, end = tok.char_span
            surface = "".join(text[start:end].split())
            assert word.span[1] - word.span[0] == len(surface)
            assert chars[word.span[0] : word.span[1]] == surface


def test_rejects_different_underlying_text():
    gold = doc_from(*GOLD_ROWS)
    other = doc_from("1\twat\t_\tNOUN\t_\t_\t0\troot\t_\t_")
    with pytest.raises(DataError, match="underlying text"):
        evaluate(gold, other, EvalSetting.GOLD_TOK)


# -------------------------------------------------- agreement with oracle


def perturb(doc, rng: random.Random):
    out = doc.copy()
    for sent in out.sentences:
        n = len(sent.tokens)
        for tok in sent.tokens:
            roll = rng.random()
            if roll < 0.25:
                tok.upos = rng.choice(UPOS_POOL)
            elif roll < 0.4:
                tok.lemma = (tok.lemma or "") + "x"
            elif roll < 0.55:
                tok.head = rng.randrange(0, n + 1)
                if tok.head == tok.id:
                    tok.head = 0
            elif roll < 0.7:
                tok.deprel = rng.choice(["dep", "nsubj", "obj", "det"])
            elif roll < 0.8:
                tok.feats = {"Alt": "Yes"}
            elif roll < 0.9:
                tok.xpos = "zz"
    return out


def test_evaluate_matches_brute_force_on_perturbations():
    gold = make_corpus(25, seed=11)
    rng = random.Random(42)
    for _ in range(50):
        system = perturb(gold, rng)
        report = evaluate(gold, system, EvalSetting.GOLD_TOK)
        expected = brute_token_scores(gold, system)
        for name, value in expected.items():
            assert getattr(report, name) == value, name


# --------------------------------------------------------- cross-validation


def test_build_cv_plan_partitions():
    for k in (3, 5, 10):
        plan = build_cv_plan(100, k, seed=2)
        assert plan.k == k and len(plan.sets) == k
        all_indices = [i for s in plan.sets for i in s]
        assert sorted(all_indices) == list(range(100))
        sizes = {len(s) for s in plan.sets}
        assert max(sizes) - min(sizes) <= 1


def test_cv_plan_rotation():
    plan = build_cv_plan(20, 5, seed=0)
    assert plan.fold(1) == (1, 2, [3, 4, 5])
    assert plan.fold(4) == (4, 5, [1, 2, 3])
    assert plan.fold(5) == (5, 1, [2, 3, 4])  # validation wraps around
    with pytest.raises(DataError, match="outside"):
        plan.fold(0)
    with pytest.raises(DataError, match="outside"):
        plan.fold(6)


def test_build_cv_plan_validation():
    with pytest.raises(DataError, match="k >= 3"):
        build_cv_plan(100, 2)
    with pytest.raises(DataError, match="at least 20"):
        build_cv_plan(19, 10)
    a = build_cv_plan(50, 5, seed=1)
    b = build_cv_plan(50, 5, seed=1)
    assert a.sets == b.sets


def quick_train(train_doc, dev_doc):
    return train_pipeline(train_doc, dev_doc, epochs=1)


def test_cross_validate_rotating_folds():
    corpus = make_corpus(30, seed=6)
    settings = (EvalSetting.GOLD_TOK, EvalSetting.RAW_TEXT)
    plan, reports, summaries = cross_validate(corpus, 3, quick_train, settings, seed=4)

    assert plan.sets == build_cv_plan(30, 3, seed=4).sets
    for setting in settings:
        assert len(reports[setting]) == 3

    gold_summary = summaries[EvalSetting.GOLD_TOK]
    assert "f1_words" not in gold_summary.means
    assert "f1_words" in summaries[EvalSetting.RAW_TEXT].means
    for metric in ("upos", "lemma", "uas", "las"):
        values = [getattr(r, metric) for r in reports[EvalSetting.GOLD_TOK]]
        assert gold_summary.means[metric] == round_half_up(statistics.fmean(values), 1)
        assert gold_summary.sds[metric] == round_half_up(statistics.stdev(values), 1)


def test_cv_summary_tsv_shape():
    corpus = make_corpus(30, seed=6)
    _, _, summaries = cross_validate(corpus, 3, quick_train, (EvalSetting.GOLD_TOK,), seed=4)
    lines = cv_summary_tsv(summaries).splitlines()
    assert lines[0] == "metric\tgoldtok_mean\tgoldtok_sd"
    metrics = [line.split("\t")[0] for line in lines[1:]]
    assert "f1_words" not in metrics  # not reported under gold tokenization
    assert metrics == [m for m in METRIC_ORDER if m in ("upos", "xpos", "ufeats", "alltags", "lemma", "uas", "las")]
    for line in lines[1:]:
        cells = line.split("\t")
        assert len(cells) == 3
        float(cells[1]), float(cells[2])


def test_cross_validate_forked_equals_inline(monkeypatch, two_cpus):
    corpus = make_corpus(40, seed=6)
    settings = (EvalSetting.GOLD_TOK, EvalSetting.RAW_TEXT, EvalSetting.GOLD_TOK_MORPH)
    runs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        _, reports, summaries = cross_validate(corpus, 4, quick_train, settings, seed=4)
        runs[cpus] = reports, summaries, cv_summary_tsv(summaries)
    assert len(two_cpus) == 1  # only the outer map_jobs forks, only on two CPUs
    assert runs[2] == runs[1]


# ------------------------------------------------------------ fisher exact


def test_fisher_hand_values():
    assert abs(fisher_exact(ContingencyTable2x2(5, 0, 0, 5)) - 0.0079365) < 1e-7
    assert fisher_exact(ContingencyTable2x2(10, 10, 10, 10)) == 1.0
    assert fisher_exact(ContingencyTable2x2(1, 0, 0, 1)) == 1.0
    assert abs(
        fisher_exact(ContingencyTable2x2(0, 5, 5, 0))
        - fisher_exact(ContingencyTable2x2(5, 0, 0, 5))
    ) < 1e-12
    assert fisher_exact(ContingencyTable2x2(0, 0, 3, 4)) == 1.0


def test_fisher_agrees_with_exact_enumeration():
    for a in range(6):
        for b in range(6):
            for c in range(6):
                for d in range(6):
                    if a + b + c + d == 0:
                        continue
                    got = fisher_exact(ContingencyTable2x2(a, b, c, d))
                    want = float(fisher_exact_fraction(a, b, c, d))
                    assert abs(got - want) <= 1e-12, (a, b, c, d)


def test_contingency_table_validation():
    with pytest.raises(DataError, match="non-negative"):
        ContingencyTable2x2(-1, 0, 0, 1)
    with pytest.raises(DataError, match="non-negative"):
        ContingencyTable2x2(1.5, 0, 0, 1)
    with pytest.raises(DataError, match="all zeros"):
        ContingencyTable2x2(0, 0, 0, 0)


# -------------------------------------------------------------- bootstrap


def test_bootstrap_validation():
    with pytest.raises(DataError, match="at least 5"):
        bootstrap_median_compare([1.0] * 4, [1.0] * 5)
    with pytest.raises(DataError, match="at least 1000"):
        bootstrap_median_compare([1.0] * 5, [1.0] * 5, iterations=999)


def test_bootstrap_deterministic():
    a = [74.2, 75.1, 73.9, 74.8, 75.5, 74.0]
    b = [71.0, 70.2, 71.8, 70.9, 71.3, 70.5]
    r1 = bootstrap_median_compare(a, b, iterations=1000, seed=3)
    r2 = bootstrap_median_compare(a, b, iterations=1000, seed=3)
    assert r1 == r2
    assert isinstance(r1, BootstrapResult)


def test_bootstrap_separated_samples():
    a = [10.0, 11.0, 12.0, 13.0, 14.0]
    b = [0.0, 1.0, 2.0, 3.0, 4.0]
    result = bootstrap_median_compare(a, b, iterations=1000, seed=0)
    assert result.median_diff == 10.0
    assert result.p_value == 1.0 / 1000
    assert result.ci_low > 0
    assert result.ci_low <= result.median_diff <= result.ci_high

    flipped = bootstrap_median_compare(b, a, iterations=1000, seed=0)
    assert flipped.median_diff == -10.0
    assert flipped.ci_high < 0


def test_bootstrap_identical_samples():
    a = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    result = bootstrap_median_compare(a, list(a), iterations=1000, seed=1)
    assert result.median_diff == 0.0
    assert 0.5 <= result.p_value <= 1.0
    assert result.ci_low <= 0.0 <= result.ci_high
