"""The compiled scoring kernel against its reference, predict_with."""

import math
import random
import sys
import threading

import pytest
from oracles import _State, best_index, set_weights, token_features
from synth import make_corpus

from udbridge import depparser
from udbridge.depparser import (
    SHIFT,
    ParserModel,
    _node_feats,
    _padded,
    train_parser,
)
from udbridge.errors import DataError
from udbridge.lemmatizer import LemmaRules
from udbridge.perceptron import AveragedPerceptron, compile_rows, predict_with
from udbridge.pipeline import EvalSetting, PipelineModel, annotate
from udbridge.tagger import _PAD, ATTRIBUTES, TaggerModel, train_tagger
from udbridge.tokenizer import tokenize

# Few distinct values, so that equal scores (ties) are common.
_VALUES = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)


def random_table(rng: random.Random, classes: list[str], n_feats: int) -> dict:
    """Rows over random class subsets, some with classes outside `classes`."""
    table = {}
    for f in range(n_feats):
        row = {}
        for cls in rng.sample(classes, rng.randint(0, len(classes))):
            row[cls] = rng.choice(_VALUES) if rng.random() < 0.7 else rng.uniform(-2, 2)
        if rng.random() < 0.2:
            row["zz-outside"] = rng.uniform(-5, 5)
        table[f"f{f}"] = row
    return table


def random_features(rng: random.Random, n_feats: int) -> list[str]:
    """Known features, repeats, and features absent from the table."""
    feats = [f"f{rng.randrange(n_feats)}" for _ in range(rng.randint(0, 12))]
    feats += [f"absent{i}" for i in range(rng.randint(0, 3))]
    rng.shuffle(feats)
    return feats


def test_kernel_matches_reference_on_random_tables():
    rng = random.Random(20240607)
    for _ in range(300):
        classes = sorted(f"c{i:02d}" for i in rng.sample(range(40), rng.randint(1, 12)))
        n_feats = rng.randint(1, 30)
        table = random_table(rng, classes, n_feats)
        rows = compile_rows(table, classes)
        for _ in range(20):
            feats = random_features(rng, n_feats)
            want = predict_with(table, feats, classes)
            assert classes[best_index(rows, feats, len(classes))] == want
            # a candidate subset, as the parser passes for "all but shift"
            cands = sorted(rng.sample(range(len(classes)), rng.randint(1, len(classes))))
            want = predict_with(table, feats, [classes[i] for i in cands])
            assert classes[best_index(rows, feats, len(classes), cands)] == want


def test_ties_go_to_the_earliest_class():
    rows = compile_rows({"f": {"b": 1.0, "a": 1.0, "c": 0.5}}, ["a", "b", "c"])
    assert best_index(rows, ["f"], 3) == 0
    assert best_index(rows, ["f"], 3, [1, 2]) == 1
    # all scores 0.0: the first candidate
    assert best_index(rows, ["unseen"], 3) == 0
    assert best_index(rows, [], 3, [2]) == 2


def test_empty_feature_list_picks_the_first_candidate():
    table = {"f": {"a": -1.0, "b": -2.0}}
    rows = compile_rows(table, ["a", "b"])
    assert best_index(rows, [], 2) == 0 == ["a", "b"].index(predict_with(table, [], ["a", "b"]))


def test_compile_skips_classes_outside_the_list():
    table = {"f": {"a": 1.0, "right:root": 9.0}, "g": {"right:root": 3.0}}
    assert compile_rows(table, ["a", "b"]) == {"f": ((0, 1.0),)}


@pytest.mark.parametrize("table", [{"f": [["a", 1.0]]}, {"f": {"a": "1.0"}}, {"f": {"a": None}}])
def test_compile_rejects_malformed_rows(table):
    with pytest.raises(DataError):
        compile_rows(table, ["a"])


def test_averaged_perceptron_predict_is_predict_with():
    rng = random.Random(5)
    p = AveragedPerceptron(["a", "b", "c"])
    # packed training rows hold integers: random_table's weights x 4, rounded
    table = {
        f: {cls: round(4 * w) for cls, w in row.items()}
        for f, row in random_table(rng, ["a", "b", "c"], 10).items()
    }
    # the same weights keyed by class index; "zz-outside" gets index 3
    set_weights(p, {f: {p.index(cls): w for cls, w in row.items()} for f, row in table.items()})
    for _ in range(50):
        feats = random_features(rng, 10)
        assert p.classes[p.predict(feats, 3)] == predict_with(table, feats, ["a", "b", "c"])


# ------------------------------------------------- tagger and parser paths


def reference_tags(model, forms: list[str], attr: str) -> list[str]:
    prev = prev2 = _PAD
    out = []
    for i in range(len(forms)):
        guess = predict_with(model.weights[attr], token_features(forms, i, prev, prev2),
                             model.classes[attr])
        out.append(guess)
        prev2, prev = prev, guess
    return out


def reference_parse(model: ParserModel, forms: list[str], tags: list[str]):
    """Greedy parse choosing each move with predict_with over sorted moves."""
    state = _State(n=len(forms))
    pforms, ptags = _padded(forms), _padded(tags)
    arcs = [c for c in model.classes if c != SHIFT]
    while not state.terminal():
        moves = [SHIFT] if not state.buffer_empty() else []
        if len(state.stack) >= 2:
            if state.stack[-2] != 0:
                moves += arcs
            elif state.buffer_empty():
                moves = ["right:root"]
        if len(moves) == 1:
            move = moves[0]
        else:
            feats = _node_feats(state.stack, state.next_buf, state.lc, state.rc, pforms, ptags)
            move = predict_with(model.weights, feats, sorted(moves))
        state.apply(move, model.root_label)
    return state.heads[1:], state.deprels[1:]


def test_trained_tagger_and_parser_match_the_reference():
    train = make_corpus(60, seed=3)
    held = make_corpus(30, seed=4)
    tagger = train_tagger(train, epochs=2)
    parser = train_parser(train, epochs=2)
    for sent in held.sentences:
        forms = [t.form for t in sent.tokens]
        predicted = tagger.predict(forms)
        for attr, tags in predicted.items():
            assert tags == reference_tags(tagger, forms, attr)
        assert parser.parse(forms, predicted["upos"]) == reference_parse(
            parser, forms, predicted["upos"]
        )


def test_parser_with_weights_for_moves_outside_its_classes():
    labels = ["a", "b"]
    classes = sorted([SHIFT] + [f"left:{l}" for l in labels] + [f"right:{l}" for l in labels])
    rng = random.Random(8)
    tags = ["NOUN", "VERB", "DET"]
    weights = {"bias": {c: rng.uniform(-1, 1) for c in classes}}
    for t in tags:
        row = {c: rng.choice(_VALUES) for c in classes}
        row["right:root"] = 10.0  # a move the parser only makes unscored
        weights["s0t=" + t] = row
        weights["b0t=" + t] = {c: rng.choice(_VALUES) for c in classes}
    # With the buffer empty shift is no candidate, however high it scores.
    weights["b0w=<none>"] = {SHIFT: 10.0}
    model = ParserModel(weights=weights, classes=classes, labels=labels)
    for _ in range(200):
        n = rng.randint(1, 9)
        forms = [f"w{i}" for i in range(n)]
        sent_tags = [rng.choice(tags) for _ in range(n)]
        assert model.parse(forms, sent_tags) == reference_parse(model, forms, sent_tags)


_AB_MOVES = sorted([SHIFT] + [f"{kind}:{l}" for kind in ("left", "right") for l in "ab"])


def test_shift_outscoring_every_arc_with_the_buffer_empty_is_passed_over():
    weights = {"bias": {SHIFT: 5.0, "right:b": 1.0, "left:a": 0.5}, "b0w=<none>": {SHIFT: 10.0}}
    model = ParserModel(weights=weights, classes=_AB_MOVES, labels=["a", "b"])
    for n in range(1, 7):
        forms, tags = [f"w{i}" for i in range(n)], ["T"] * n
        assert model.parse(forms, tags) == reference_parse(model, forms, tags)
    # shift while the buffer holds tokens, then right:b, the best arc
    assert model.parse(["p", "q", "r"], ["T"] * 3) == ([0, 1, 2], ["root", "b", "b"])


@pytest.mark.parametrize("bias,want", [
    # every arc ties below shift: shift, then left:a, the earliest arc
    ({"left:a": 1.0, "left:b": 1.0, "right:a": 1.0, "right:b": 1.0, SHIFT: 2.0},
     ([3, 3, 0], ["a", "a", "root"])),
    # the right arcs tie above the left ones: right:a
    ({"left:a": 0.5, "left:b": 0.5, "right:a": 1.0, "right:b": 1.0, SHIFT: 2.0},
     ([0, 1, 2], ["root", "a", "a"])),
    # every move ties: left:a beats shift, which sorts last
    ({"left:a": 1.0, "left:b": 1.0, "right:a": 1.0, "right:b": 1.0, SHIFT: 1.0},
     ([2, 3, 0], ["a", "a", "root"])),
])
def test_tied_arc_scores_go_to_the_earliest_move(bias, want):
    model = ParserModel(weights={"bias": bias}, classes=_AB_MOVES, labels=["a", "b"])
    assert model.parse(["p", "q", "r"], ["T"] * 3) == want
    for n in range(1, 7):
        forms, tags = [f"w{i}" for i in range(n)], ["T"] * n
        assert model.parse(forms, tags) == reference_parse(model, forms, tags)


def test_a_tag_class_spelled_like_the_pad_reads_the_pad_rows():
    weights = {
        "bias": {"<s>": 1.0},
        "pt=<s>": {"A": 0.75, "B": 0.5},
        "ppt=<s>+<s>": {"B": 0.5, "<s>": -0.25},
        "pt=A": {"<s>": 0.25},
        "w=y": {"B": 2.0},
        "ppt=B+<s>": {"A": 1.0},
    }
    classes = {"upos": ["A", "B"], "xpos": ["A", "<s>", "B"], "feats": ["<s>", "B"]}
    model = TaggerModel(weights={attr: weights for attr in ATTRIBUTES}, classes=classes)
    sentences = [["x"], ["x", "x", "x"], ["x", "y", "x", "x", "y"], ["y", "x", "x", "y", "x"]]
    for forms in sentences:
        got = model.predict(forms)
        assert got == {attr: reference_tags(model, forms, attr) for attr in ATTRIBUTES}
    assert "<s>" in model.predict(["x", "x", "x"])["xpos"]


def test_pt_rows_are_added_before_the_ppt_rows():
    # Class "a" scores (1e16 + 1.0) - 1e16 = 0.0 in feature order and loses
    # to "b"; adding ppt before pt would give (1e16 - 1e16) + 1.0 = 1.0.
    weights = {"bias": {"a": 1e16, "b": 0.5}, "pt=<s>": {"a": 1.0}, "ppt=<s>+<s>": {"a": -1e16}}
    model = TaggerModel(
        weights={attr: weights for attr in ATTRIBUTES},
        classes={attr: ["a", "b"] for attr in ATTRIBUTES},
    )
    got = model.predict(["X"])
    assert got == {attr: reference_tags(model, ["X"], attr) for attr in ATTRIBUTES}
    assert got["upos"] == ["b"]


# --------------------------------------- random tables against the references

_WORDS = ("a", "Ab", "b2", "ab", "<s>")
_FORMS = ("x", "y", "z")
_TAGS = ("N", "V")


def _named_table(rng: random.Random, classes: list[str], names: list[str]) -> dict:
    """random_table's rows under feature `names`, about half of them kept."""
    rows = random_table(rng, classes, len(names)).values()
    return {name: row for name, row in zip(names, rows) if rng.random() < 0.5}


def _tagger_feature_names(classes: list[str]) -> list[str]:
    history = classes + [_PAD]
    names = {"hasdigit", "cap"}
    for w in _WORDS:
        names.update(token_features([w], 0, _PAD, _PAD))
        names.update(("pw=" + w.lower(), "nw=" + w.lower()))
    names.update("pt=" + prev for prev in history)
    names.update(f"ppt={prev2}+{prev}" for prev2 in history for prev in history)
    return sorted(names)


def _parser_feature_names(labels: list[str]) -> list[str]:
    forms, tags = _FORMS + ("<none>",), _TAGS + ("<none>",)
    names = ["bias"] + [f"dist={d}" for d in range(1, 6)]
    names += [slot + f for slot in ("s0w=", "s1w=", "b0w=", "b1w=") for f in forms]
    names += [slot + t for slot in ("s0t=", "s1t=", "s2t=", "b0t=", "b1t=") for t in tags]
    names += [f"{slot}{f}/{t}" for slot in ("s0wt=", "s1wt=", "b0wt=") for f in forms for t in tags]
    names += [f"{slot}{t}+{u}" for slot in ("s0s1t=", "s0b0t=", "s1b0t=") for t in tags for u in tags]
    names += [f"s0s1w={f}+{g}" for f in forms for g in forms]
    names += [f"s0s1b0t={t}+{u}+{v}" for t in tags for u in tags for v in tags]
    names += [slot + l for slot in ("s0lc=", "s0rc=", "s1lc=", "s1rc=")
              for l in labels + ["root", "<none>"]]
    return names


def test_random_tables_tag_like_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        classes = {attr: rng.sample(["<s>", "A", "B", "C", "D"], rng.randint(1, 4))
                   for attr in ATTRIBUTES}
        weights = {attr: _named_table(rng, classes[attr], _tagger_feature_names(classes[attr]))
                   for attr in ATTRIBUTES}
        model = TaggerModel(weights=weights, classes=classes)
        for _ in range(2):  # cold, then from the memo
            for _ in range(4):
                forms = rng.choices(_WORDS, k=rng.randint(1, 8))
                assert model.predict(forms) == {
                    attr: reference_tags(model, forms, attr) for attr in ATTRIBUTES
                }

    check()


def test_random_tables_parse_like_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        labels = sorted(rng.sample(["a", "b", "c"], rng.randint(1, 3)))
        classes = sorted([SHIFT] + [f"{kind}:{l}" for kind in ("left", "right") for l in labels])
        # "right:root" is a move the parser makes only unscored
        weights = _named_table(rng, classes + ["right:root"], _parser_feature_names(labels))
        model = ParserModel(weights=weights, classes=classes, labels=labels)
        for _ in range(6):
            n = rng.randint(1, 8)
            forms = rng.choices(_FORMS + ("w",), k=n)
            tags = rng.choices(_TAGS + ("Q",), k=n)
            assert model.parse(forms, tags) == reference_parse(model, forms, tags)

    check()


# ------------------------------------------------------ the tagger's form memo

# Unseen forms, digits, capitals and one-letter words beside the grammar.
_ODD_SENTENCES = [
    ["Ljouwert", "fynt", "12e", "x", "."],
    ["De", "Kat", "a", "C", "2024", "boeken"],
    ["q"],
    ["DE", "man", "de", "Man", "3", "."],
]


def _memo_sentences(seed: int) -> list[list[str]]:
    held = make_corpus(25, seed=seed)
    return [[t.form for t in sent.tokens] for sent in held.sentences] + _ODD_SENTENCES


@pytest.fixture(scope="module")
def trained_tagger() -> TaggerModel:
    return train_tagger(make_corpus(60, seed=3), epochs=2)


def _fresh(model: TaggerModel) -> TaggerModel:
    """The same weights with an empty memo."""
    return TaggerModel(weights=model.weights, classes=model.classes)


def _reference(model: TaggerModel, sentences: list[list[str]]) -> list[dict]:
    return [
        {attr: reference_tags(model, forms, attr) for attr in ATTRIBUTES} for forms in sentences
    ]


def test_memo_gives_the_reference_tags_cold_warm_and_filled_elsewhere(trained_tagger):
    sentences = _memo_sentences(seed=4)
    want = _reference(trained_tagger, sentences)

    model = _fresh(trained_tagger)
    assert [model.predict(forms) for forms in sentences] == want  # cold
    assert model._memo
    assert [model.predict(forms) for forms in sentences] == want  # warm

    other = _fresh(trained_tagger)
    for forms in _memo_sentences(seed=9):
        other.predict(forms)
    assert [other.predict(forms) for forms in sentences] == want
    for forms, tags in zip(sentences, want):
        for attr in ATTRIBUTES:
            assert other.predict_attribute(forms, attr) == tags[attr]


def test_memo_stays_within_its_bound(trained_tagger, monkeypatch):
    monkeypatch.setattr("udbridge.util.MEMO_ENTRIES", 8)
    sentences = _memo_sentences(seed=4)
    assert len({form for forms in sentences for form in forms}) > 2 * 8
    want = _reference(trained_tagger, sentences)
    model = _fresh(trained_tagger)
    for _ in range(2):
        for forms, tags in zip(sentences, want):
            assert model.predict(forms) == tags
            assert 0 < len(model._memo) <= 8
    # forms without a word row are remembered too
    model.predict(["Ljouwert", "q"])
    assert {"Ljouwert", "q"} <= set(model._memo)
    assert not any(model.weights[attr].get("w=Ljouwert") for attr in ATTRIBUTES)


def _in_four_threads(call, inputs: list) -> list:
    """Each of 4 threads calls `call` on every input, thread k from the kth
    on."""
    start = threading.Barrier(4, timeout=30)
    results: list = [None] * 4

    def work(k):
        start.wait()
        results[k] = [call(x) for x in inputs[k:] + inputs[:k]]

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
    return results


def test_threads_sharing_one_memo_get_the_reference_tags(trained_tagger):
    sentences = _memo_sentences(seed=4)
    want = _reference(trained_tagger, sentences)
    results = _in_four_threads(_fresh(trained_tagger).predict, sentences)
    for k, got in enumerate(results):
        assert got == want[k:] + want[:k]


def test_threads_sharing_one_memo_that_clears_get_the_reference_tags(
    trained_tagger, monkeypatch
):
    monkeypatch.setattr("udbridge.util.MEMO_ENTRIES", 8)
    sentences = _memo_sentences(seed=4)
    want = _reference(trained_tagger, sentences)
    model = _fresh(trained_tagger)
    results = _in_four_threads(model.predict, sentences)
    for k, got in enumerate(results):
        assert got == want[k:] + want[:k]
    # threads past the size check together may each add one form
    assert len(model._memo) <= 8 + 3


def test_history_features_are_added_before_the_tail():
    # Class "a" scores (1e16 - 1e16) + 1.0 = 1.0 in feature order; adding
    # cap before pt and ppt would lose the 1.0 to rounding and pick "b".
    weights = {
        "bias": {"b": 0.5},
        "w=X": {"b": 0.0},
        "pt=<s>": {"a": 1e16},
        "ppt=<s>+<s>": {"a": -1e16},
        "cap": {"a": 1.0},
    }
    classes = ["a", "b"]
    model = TaggerModel(
        weights={attr: weights for attr in ATTRIBUTES},
        classes={attr: classes for attr in ATTRIBUTES},
    )
    for _ in range(2):  # cold, then from the memo
        got = model.predict(["X"])
        assert got == {attr: reference_tags(model, ["X"], attr) for attr in ATTRIBUTES}
        assert got["upos"] == ["a"]
    assert list(model._memo) == ["X"]


# ------------------------------------------------------ the parser's token memo

# Made-up tags beside the grammar's: goldtokmorph takes tags from clients.
_ODD_TAGS = ("ZZZ", "NOUN", "q", "VERB", "PUNCT", "<none>", "X1")


def _parse_sentences(seed: int) -> list[tuple[list[str], list[str]]]:
    held = make_corpus(25, seed=seed)
    out = [([t.form for t in s.tokens], [t.upos for t in s.tokens]) for s in held.sentences]
    for forms in _ODD_SENTENCES:
        out.append((forms, [_ODD_TAGS[k % len(_ODD_TAGS)] for k in range(len(forms))]))
    return out


@pytest.fixture(scope="module")
def trained_parser() -> ParserModel:
    return train_parser(make_corpus(60, seed=3), epochs=2)


def _fresh_parser(model: ParserModel) -> ParserModel:
    """The same weights with empty memos."""
    return ParserModel(weights=model.weights, classes=model.classes, labels=model.labels,
                       root_label=model.root_label)


def _memos(model: ParserModel) -> tuple[dict, ...]:
    return model._tokens, model._tags, model._triples, model._s0s1w


def test_parser_memo_gives_the_reference_parse_cold_warm_and_filled_elsewhere(trained_parser):
    sentences = _parse_sentences(seed=4)
    want = [reference_parse(trained_parser, forms, tags) for forms, tags in sentences]

    model = _fresh_parser(trained_parser)
    assert [model.parse(forms, tags) for forms, tags in sentences] == want  # cold
    assert model._tokens and model._triples
    assert [model.parse(forms, tags) for forms, tags in sentences] == want  # warm

    other = _fresh_parser(trained_parser)
    for forms, tags in _parse_sentences(seed=9):
        other.parse(forms, tags)
    assert [other.parse(forms, tags) for forms, tags in sentences] == want


def test_parser_memos_stay_within_their_bound(trained_parser, monkeypatch):
    monkeypatch.setattr("udbridge.util.MEMO_ENTRIES", 8)
    sentences = _parse_sentences(seed=4)
    assert len({key for forms, tags in sentences for key in zip(forms, tags)}) > 2 * 8
    want = [reference_parse(trained_parser, forms, tags) for forms, tags in sentences]
    model = _fresh_parser(trained_parser)
    for _ in range(2):  # cold, then warm
        for (forms, tags), parse in zip(sentences, want):
            assert model.parse(forms, tags) == parse
            assert all(len(memo) <= 8 for memo in _memos(model))
    # a form without form rows stores its tag's entry, made-up tag or not
    assert not any(feat.endswith(("=Ljouwert", "=Ljouwert/ZZZ")) for feat in model.weights)
    model = _fresh_parser(trained_parser)
    model.parse(["Ljouwert"], ["ZZZ"])
    assert model._tokens[("Ljouwert", "ZZZ")] is model._tags["ZZZ"]


def test_goldtokmorph_with_made_up_tags_and_unseen_forms_gives_the_reference(
    trained_tagger, trained_parser
):
    model = PipelineModel(tagger=trained_tagger, lemma_rules=LemmaRules(),
                          parser=_fresh_parser(trained_parser))
    for forms, tags in _parse_sentences(seed=4):
        model.parser.parse(forms, tags)
    doc = tokenize("Ljouwert fynt 12e x-beamen. De Wytske man boeken q.")
    for k, tok in enumerate(doc.tokens()):
        tok.upos = f"TAG{k % 3}"
    for _ in range(2):
        out = annotate(doc, model, EvalSetting.GOLD_TOK_MORPH)
    for sent, got in zip(doc.sentences, out.sentences):
        forms = [t.form for t in sent.tokens]
        tags = [t.upos for t in sent.tokens]
        heads, deprels = reference_parse(trained_parser, forms, tags)
        assert [t.head for t in got.tokens] == heads
        assert [t.deprel for t in got.tokens] == deprels


def _parse_in_four_threads(model: ParserModel, sentences: list) -> None:
    """Each of 4 threads parses every sentence, thread k from the kth on,
    and gets the reference parses."""
    want = [reference_parse(model, forms, tags) for forms, tags in sentences]
    results = _in_four_threads(lambda sent: model.parse(*sent), sentences)
    for k, got in enumerate(results):
        assert got == want[k:] + want[:k]


def test_threads_sharing_one_parser_memo_get_the_reference_parse(trained_parser):
    _parse_in_four_threads(_fresh_parser(trained_parser), _parse_sentences(seed=4))


def test_threads_sharing_parser_memos_that_clear_get_the_reference_parse(
    trained_parser, monkeypatch
):
    monkeypatch.setattr("udbridge.util.MEMO_ENTRIES", 8)
    model = _fresh_parser(trained_parser)
    _parse_in_four_threads(model, _parse_sentences(seed=4))
    # threads past the size check together may each add one entry
    assert all(len(memo) <= 8 + 3 for memo in _memos(model))


def test_s1_rows_are_added_after_the_s0_scores():
    # At the one scored decision (s0 = "X", s1 = "Y") left:a scores
    # (1e16 - 1e16) + 1.0 = 1.0 in feature order and beats right:a's 0.5;
    # adding the s1 row before the s0 scores would lose the 1.0 to rounding
    # and pick right:a.
    weights = {
        "bias": {"left:a": 1e16, "right:a": 0.5},
        "s0w=X": {"left:a": -1e16},
        "s0t=T": {"shift": 0.0},
        "s1w=Y": {"left:a": 1.0},
    }
    model = ParserModel(weights=weights, classes=["left:a", "right:a", SHIFT], labels=["a"])
    for _ in range(2):  # cold, then from the memo
        got = model.parse(["Y", "X"], ["T", "T"])
        assert got == reference_parse(model, ["Y", "X"], ["T", "T"])
        assert got == ([2, 0], ["a", "root"])
    assert set(model._tokens) == {("X", "T"), ("Y", "T"), ("<none>", "<none>")}


# ------------------------------------------------ the parser's certified lanes


@pytest.fixture
def fallbacks(monkeypatch) -> list[int]:
    """A count of the decisions that parse() sums as floats: its fallback is
    the only caller of _node_feats in parse()."""
    count = [0]
    node_feats = depparser._node_feats

    def counted(*args):
        count[0] += 1
        return node_feats(*args)

    monkeypatch.setattr(depparser, "_node_feats", counted)
    return count


def _scaled(model: ParserModel, scale) -> ParserModel:
    """`model` with every weight passed through `scale`."""
    weights = {feat: {cls: scale(w) for cls, w in row.items()}
               for feat, row in model.weights.items()}
    return ParserModel(weights=weights, classes=model.classes, labels=model.labels,
                       root_label=model.root_label)


@pytest.mark.parametrize("power", [-900, -60, 60, 900])
def test_weights_scaled_by_a_power_of_two_parse_like_the_model(trained_parser, power):
    scaled = _scaled(trained_parser, lambda w: math.ldexp(w, power))
    for forms, tags in _parse_sentences(seed=4):
        got = scaled.parse(forms, tags)
        assert got == trained_parser.parse(forms, tags)
        assert got == reference_parse(scaled, forms, tags)


def test_the_trained_parser_never_falls_back(trained_parser, fallbacks):
    model = _fresh_parser(trained_parser)
    for forms, tags in _parse_sentences(seed=4) + _parse_sentences(seed=9):
        assert model.parse(forms, tags) == reference_parse(model, forms, tags)
    assert fallbacks[0] == 0


_ULP = math.nextafter(1.0, 2.0)

# (weights, the parse of ["Y", "X"] tagged ["T", "T"]): one scored decision,
# where s0 is "X", s1 is "Y" and only the arc moves are open, whose lanes
# cannot tell the move that the float sums pick
_TIE_CASES = [
    # right:a leads by one ulp
    ({"bias": {"left:a": 1.0, "right:a": _ULP}}, ([0, 1], ["root", "a"])),
    # left:a leads by one ulp
    ({"bias": {"left:a": _ULP, "right:a": 1.0}}, ([2, 0], ["a", "root"])),
    # an exact tie goes to the earliest move
    ({"bias": {"left:a": 1.0, "right:a": 1.0}}, ([2, 0], ["a", "root"])),
    # left:a scores (1e16 + 1.0) - 1e16 = 0.0 in feature order and loses to
    # right:a's 0.5, although its exact sum, 1.0, is higher
    ({"bias": {"left:a": 1e16, "right:a": 0.5}, "s0w=X": {"left:a": 1.0},
      "s1w=Y": {"left:a": -1e16}}, ([0, 1], ["root", "a"])),
]
# left:a scores 2**53 in the first feature and 1.0 in each of the next 21,
# which rounding to even drops, and -2**53 in the last: 0.0 in feature
# order, below right:a's 1.0, while its exact sum, 21.0, leads by 20.0
_FEATS = _node_feats([0, 1, 2], 3, {}, {}, _padded(["Y", "X"]), _padded(["T", "T"]))
_ABSORBED = {feat: {"left:a": 1.0} for feat in _FEATS}
_ABSORBED[_FEATS[0]] = {"left:a": 2.0**53, "right:a": 1.0}
_ABSORBED[_FEATS[-1]] = {"left:a": -(2.0**53)}
_TIE_CASES.append((_ABSORBED, ([0, 1], ["root", "a"])))
# left:a scores 1.5e308 + 1.5e308 = inf, which stays inf, in feature order
# and beats right:a's 7.5e307, although its exact sum is 0.0
_TIE_CASES.append(({"bias": {"left:a": 1.5e308, "right:a": 7.5e307}, "s0w=X": {"left:a": 1.5e308},
                    "s0t=T": {"left:a": -1.5e308}, "s0wt=X/T": {"left:a": -1.5e308}},
                   ([2, 0], ["a", "root"])))


@pytest.mark.parametrize("weights, want", _TIE_CASES, ids=[
    "right-by-an-ulp", "left-by-an-ulp", "exact-tie", "cancelled-1e16", "absorbed-additions",
    "overflowing-sum"])
def test_uncertain_decisions_fall_back_to_the_float_sum(weights, want, fallbacks):
    model = ParserModel(weights=weights, classes=["left:a", "right:a", SHIFT], labels=["a"])
    assert model.parse(["Y", "X"], ["T", "T"]) == want
    assert fallbacks[0] == 1
    for n in range(1, 7):
        forms, tags = [f"w{i}" for i in range(n)], ["T"] * n
        assert model.parse(forms, tags) == reference_parse(model, forms, tags)


@pytest.mark.parametrize("scale", [1.0, 2.0**900, 2.0**-900, 1e16, 1e-300],
                         ids=["1", "2**900", "2**-900", "1e16", "1e-300"])
def test_tie_heavy_tables_parse_like_the_reference(scale, fallbacks):
    rng = random.Random(24)
    for _ in range(25):
        labels = sorted(rng.sample(["a", "b", "c"], rng.randint(1, 3)))
        classes = sorted([SHIFT] + [f"{kind}:{l}" for kind in ("left", "right") for l in labels])
        table = _named_table(rng, classes + ["right:root"], _parser_feature_names(labels))
        weights = {feat: {cls: w * scale for cls, w in row.items()} for feat, row in table.items()}
        model = ParserModel(weights=weights, classes=classes, labels=labels)
        for _ in range(6):
            n = rng.randint(1, 8)
            forms = rng.choices(_FORMS + ("w",), k=n)
            tags = rng.choices(_TAGS + ("Q",), k=n)
            assert model.parse(forms, tags) == reference_parse(model, forms, tags)
    assert fallbacks[0] > 0
