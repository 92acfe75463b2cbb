"""Both trainers keep the averaged snapshot of the earliest epoch with the
best dev score (UPOS accuracy for the tagger, UAS for the parser).

The oracle retrains without dev for e = 1..E epochs. The same seed gives
the same shuffles, so run e's weights are the snapshot of epoch e.
"""

import pytest
from synth import make_corpus

from udbridge.depparser import train_parser
from udbridge.tagger import train_tagger

EPOCHS = 4


def _upos_accuracy(model, dev) -> float:
    correct = total = 0
    for sent in dev.sentences:
        got = model.predict([t.form for t in sent.tokens])["upos"]
        correct += sum(g == t.upos for g, t in zip(got, sent.tokens))
        total += len(sent.tokens)
    return correct / total


def _uas(model, dev) -> float:
    correct = total = 0
    for sent in dev.sentences:
        heads, _ = model.parse([t.form for t in sent.tokens], [t.upos for t in sent.tokens])
        correct += sum(h == t.head for h, t in zip(heads, sent.tokens))
        total += len(sent.tokens)
    return correct / total


TRAINERS = {"tagger": (train_tagger, _upos_accuracy), "parser": (train_parser, _uas)}


# (trainer, train size, corpus seed, earliest best epoch). Pinning the
# epoch keeps cases below EPOCHS, and ties, covered.
@pytest.mark.parametrize(
    "trainer, n_train, seed, best_epoch",
    [
        ("tagger", 4, 2, 3),  # epochs 3 and 4 tie
        ("tagger", 15, 7, 2),  # epochs 2, 3 and 4 tie
        ("tagger", 8, 5, 4),
        ("parser", 4, 2, 2),
        ("parser", 15, 7, 2),  # epochs 2, 3 and 4 tie
        ("parser", 8, 5, 4),
    ],
)
def test_trainer_keeps_the_earliest_best_dev_epoch(trainer, n_train, seed, best_epoch):
    train_fn, score = TRAINERS[trainer]
    train = make_corpus(n_train, seed=seed)
    dev = make_corpus(10, seed=seed + 100)
    runs = [train_fn(train, epochs=e) for e in range(1, EPOCHS + 1)]
    scores = [score(run, dev) for run in runs]
    earliest = scores.index(max(scores))
    assert earliest + 1 == best_epoch

    kept = train_fn(train, dev, epochs=EPOCHS)
    assert kept.weights == runs[earliest].weights
    if best_epoch < EPOCHS:
        assert kept.weights != runs[-1].weights
