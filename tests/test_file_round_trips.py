"""Files udbridge writes read back as written: a trained translation table
through dumps and loads, and a translation cache through save and load."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from udbridge.aligner import (
    AlignerConfig,
    SentencePair,
    TranslationTable,
    train_aligner,
    viterbi_align,
)
from udbridge.translate import LexiconCache

# A word as read_bitext and the translator make one: non-empty, without
# whitespace, encodable as UTF-8. Most come from a small vocabulary, so
# that pairs share words and EM has cells to move mass between.
WORDS = st.one_of(
    st.sampled_from(["a", "b", "c", "hûs", "#", "x", "y", "<null>"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3).filter(
        lambda word: not any(ch.isspace() for ch in word)
    ),
)
SIDES = st.lists(WORDS, min_size=1, max_size=5)
BITEXTS = st.lists(
    st.builds(SentencePair, SIDES.filter(lambda side: "<null>" not in side), SIDES),
    min_size=1,
    max_size=6,
)
FAST = settings(
    max_examples=80,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@FAST
@given(
    bitext=BITEXTS,
    null_prob=st.sampled_from([0.0, 0.08, 0.5]),
    lambda_=st.sampled_from([0.0, 4.0]),
    iterations=st.integers(1, 3),
)
def test_a_translation_table_reads_back_as_written(bitext, null_prob, lambda_, iterations):
    cfg = AlignerConfig(iterations=iterations, lambda_=lambda_, null_prob=null_prob)
    table = train_aligner(bitext, cfg)
    text = table.dumps()
    loaded = TranslationTable.loads(text)
    assert loaded.dumps() == text
    assert loaded.config == cfg
    for pair in bitext:
        assert viterbi_align(loaded, pair) == viterbi_align(table, pair)


@FAST
@given(entries=st.dictionaries(WORDS, WORDS, max_size=8))
def test_a_translation_cache_reads_back_as_written(entries, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cache") / "cache.tsv")
    cache = LexiconCache(path)
    for word, translation in entries.items():
        cache.store(word, translation)
    cache.save()
    with open(path, encoding="utf-8") as fh:
        saved = fh.read()
    loaded = LexiconCache(path)
    assert len(loaded) == len(entries)
    assert all(loaded.lookup(word) == translation for word, translation in entries.items())
    loaded.save()
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == saved
