"""Edit-script lemmatizer: script derivation, rule indexing, prediction."""

import sys
import threading

import pytest
from synth import make_corpus

from udbridge.conllu import parse_conllu
from udbridge.errors import DataError
from udbridge.lemmatizer import EditScript, LemmaRules, derive_script, train_lemmatizer


@pytest.mark.parametrize(
    "form,lemma,script",
    [
        ("rint", "rinne", EditScript(1, "ne", "keep")),
        ("wenjende", "wenje", EditScript(3, "", "keep")),
        ("hûs", "hûs", EditScript(0, "", "keep")),
        ("De", "de", EditScript(0, "", "lower_first")),
        ("WURD", "wurd", EditScript(0, "", "lower_all")),
        ("Sjocht", "sjen", EditScript(4, "en", "lower_first")),
        ("gie", "gean", EditScript(2, "ean", "keep")),
        ("x", "y", EditScript(1, "y", "keep")),
    ],
)
def test_derive_script(form, lemma, script):
    assert derive_script(form, lemma) == script
    assert script.apply(form) == lemma


def test_derive_prefers_fewest_strips_then_mildest_casing():
    # "E" -> "e": keep would strip 1 and append "e"; lower_first strips 0
    assert derive_script("E", "e") == EditScript(0, "", "lower_first")
    # all-equal: keep wins over the other casing ops
    assert derive_script("e", "e") == EditScript(0, "", "keep")


def test_apply_rejects_overlong_strip():
    assert EditScript(5, "x", "keep").apply("ab") is None


def test_rules_index_under_suffixes_up_to_four():
    rules = LemmaRules()
    rules.add("wenjende", "VERB", "wenje")
    keys = {suffix for suffix, _ in rules.rules}
    assert keys == {"e", "de", "nde", "ende"}


def test_longest_suffix_wins():
    rules = LemmaRules()
    rules.add("rint", "VERB", "rinne")      # suffixes t, nt, int, rint
    rules.add("heart", "VERB", "hearre")    # suffixes t, rt, art, eart
    # "fynt" matches "nt" (from rint) before falling to "t"
    assert rules.predict("fynt", "VERB") == "fynne"
    # "swalt" only matches "t", where frequency decides; both scripts have
    # frequency 1, so lexicographic order picks strip1+"ne" over strip1+"re"
    assert rules.predict("swalt", "VERB") == "swalne"


def test_frequency_beats_lexicographic_order():
    rules = LemmaRules()
    rules.add("heart", "VERB", "hearre")
    rules.add("baart", "VERB", "baarre")
    rules.add("rint", "VERB", "rinne")
    # under the shared "t" key the strip1+"re" script now has frequency 2
    assert rules.predict("zzt", "VERB") == "zzre"


def test_unseen_upos_or_suffix_falls_back_to_identity():
    rules = LemmaRules()
    rules.add("rint", "VERB", "rinne")
    assert rules.predict("rint", "NOUN") == "rint"
    assert rules.predict("boek", "VERB") == "boek"
    assert rules.predict("boek", None) == "boek"


def test_inapplicable_scripts_are_skipped():
    rules = LemmaRules()
    rules.add("ende", "VERB", "e")   # strip 3, indexed under e/de/nde/ende
    # key "e" holds only the strip-3 script, which cannot apply to "ze";
    # prediction must fall through to the identity lemma, not crash
    assert rules.predict("ze", "VERB") == "ze"


def test_casing_learned_for_sentence_initial_words():
    rules = LemmaRules()
    rules.add("De", "DET", "de")
    rules.add("de", "DET", "de")
    assert rules.predict("De", "DET") == "de"
    assert rules.predict("de", "DET") == "de"


def test_train_lemmatizer_requires_gold_fields():
    doc = parse_conllu(
        "1\trint\trinne\tVERB\t_\t_\t0\troot\t_\t_\n"
        "2\tgau\t_\tADV\t_\t_\t1\tadvmod\t_\t_\n"
    )
    with pytest.raises(DataError) as exc_info:
        train_lemmatizer(doc)
    assert "no gold lemma" in str(exc_info.value)


def test_the_first_bad_token_in_document_order_is_reported():
    doc = parse_conllu(
        "1\trint\trinne\tVERB\t_\t_\t0\troot\t_\t_\n"
        "2\tgau\tgau\t_\t_\t_\t1\tadvmod\t_\t_\n"
        "3\tgau\t_\tADV\t_\t_\t1\tadvmod\t_\t_\n"
    )
    with pytest.raises(DataError, match="token 2 .* no gold upos"):
        train_lemmatizer(doc)


def test_counted_training_gives_the_rules_of_adding_every_token():
    doc = make_corpus(60, seed=19)
    rules = LemmaRules()
    for sent in doc.sentences:
        for tok in sent.tokens:
            rules.add(tok.form, tok.upos, tok.lemma)
    trained = train_lemmatizer(doc)
    assert trained.rules == rules.rules
    assert [list(bucket) for bucket in trained.rules.values()] == [
        list(bucket) for bucket in rules.rules.values()
    ]
    assert list(trained.rules) == list(rules.rules)


def test_train_and_predict_round_trip():
    doc = parse_conllu(
        "1\tDe\tde\tDET\t_\t_\t2\tdet\t_\t_\n"
        "2\tman\tman\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
        "3\tsjocht\tsjoche\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    rules = train_lemmatizer(doc)
    assert rules.predict("De", "DET") == "de"
    assert rules.predict("sjocht", "VERB") == "sjoche"
    assert rules.predict("bocht", "VERB") == "boche"


def test_an_add_that_reorders_a_bucket_changes_the_next_prediction():
    adds = [("boeken", "NOUN", "boek"), ("katten", "NOUN", "kat")]
    rules = LemmaRules()
    for add in adds:
        rules.add(*add)
    # ("en", NOUN) holds strip-2 and strip-3 once each: the smaller script wins
    assert rules.predict("loopen", "NOUN") == "loop"
    adds.append(("ratten", "NOUN", "rat"))
    rules.add(*adds[-1])
    fresh = LemmaRules()
    for add in adds:
        fresh.add(*add)
    assert rules.predict("loopen", "NOUN") == fresh.predict("loopen", "NOUN") == "loo"
    assert rules == fresh


def _lemma_queries() -> list[tuple[str, str]]:
    queries = [(t.form, t.upos) for t in make_corpus(30, seed=4).tokens()]
    return queries + [("Ljouwert", "PROPN"), ("x", "NOUN"), ("boeken", "VERB")]


def test_remembered_lemmas_are_those_of_fresh_rules():
    rules = train_lemmatizer(make_corpus(60, seed=3))
    queries = _lemma_queries()
    for _ in range(2):  # cold, then from the memo
        for form, upos in queries:
            assert rules.predict(form, upos) == LemmaRules(rules.rules).predict(form, upos)
    assert rules._lemmas


def test_an_add_after_predict_replaces_a_remembered_lemma():
    rules = LemmaRules()
    rules.add("boeken", "NOUN", "boek")
    assert rules.predict("katten", "NOUN") == "katt"  # strip 2 under "en"
    assert rules.predict("zzt", "VERB") == "zzt"  # no rule: the form itself
    rules.add("katten", "NOUN", "kat")
    rules.add("ratten", "NOUN", "rat")  # "tten", longer than "en", holds strip 3
    rules.add("rint", "VERB", "rinne")
    assert rules.predict("katten", "NOUN") == "kat"
    assert rules.predict("zzt", "VERB") == "zzne"


def test_lemma_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr("udbridge.util.MEMO_ENTRIES", 8)
    rules = train_lemmatizer(make_corpus(60, seed=3))
    queries = _lemma_queries()
    assert len(set(queries)) > 2 * 8
    for _ in range(2):
        for form, upos in queries:
            assert rules.predict(form, upos) == LemmaRules(rules.rules).predict(form, upos)
            assert 0 < len(rules._lemmas) <= 8


def test_threads_sharing_one_lemma_memo_get_fresh_lemmas():
    corpus = make_corpus(60, seed=3)
    queries = _lemma_queries()
    want = [train_lemmatizer(corpus).predict(form, upos) for form, upos in queries]
    rules = train_lemmatizer(corpus)
    start = threading.Barrier(4, timeout=30)
    results: list = [None] * 4

    def work(k):
        start.wait()
        order = queries[k:] + queries[:k]
        results[k] = [rules.predict(form, upos) for form, upos in order]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, got in enumerate(results):
        assert got == want[k:] + want[:k]
